package repro.baselines

import repro.catalyst.CompareSession
import repro.core._
import repro.workload.Workloads
import repro.{SparkSpec, TestData, TestUtil}

/** The §8 baselines (UDF, MIDDLEWARE) are alternative *execution models*, not
  * alternative semantics: both must return the same top-k pairs as COMPARE.
  */
class BaselinesSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()

  private val shapes = Seq(
    "symCities" -> Specs.symCities(),
    "symCitiesMulti" -> Specs.symCitiesMulti(),
    "ex1a" -> Specs.ex1a(),
    "crossMeasure" -> Specs.crossMeasure())

  for ((name, spec) <- shapes; asc <- Seq(true, false)) {
    val k = TopK(3, asc)
    test(s"UDF baseline top-k == COMPARE top-k: $name ${if (asc) "ASC" else "DESC"}") {
      val cmp = CompareSession.compare(sales, spec, Some(k))
      val cmpScores = cmp.collect().map(_.getAs[Double]("score"))
        .map(s => math.rint(s * 1e4) / 1e4).sorted.toSeq
      val udf = UdfBaseline.topK(sales, spec, k)
      assert(TestUtil.scoreBag(udf.pairs) == cmpScores, name)
    }
  }

  for ((name, spec) <- shapes; asc <- Seq(true, false)) {
    val k = TopK(3, asc)
    test(s"MIDDLEWARE baseline top-k == COMPARE top-k: $name${if (asc) "" else " DESC"}") {
      val cmp = CompareSession.compare(sales, spec, Some(k))
      val cmpScores = cmp.collect().map(_.getAs[Double]("score"))
        .map(s => math.rint(s * 1e4) / 1e4).sorted.toSeq
      // Large bandwidth → negligible simulated transfer delay in tests.
      val mw = MiddlewareBaseline.topK(sales, spec, k, bandwidthMBps = 1e6)
      assert(TestUtil.scoreBag(mw.pairs) == cmpScores, name)
    }
  }

  test("UDF baseline reports the marshalled aggregate volume") {
    val res = UdfBaseline.topK(sales, Specs.symCities(), TopK(1, ascending = true))
    assert(res.marshalledBytes > 0)
  }

  test("MIDDLEWARE baseline reports transferred bytes and simulated seconds") {
    val res = MiddlewareBaseline.topK(sales, Specs.symCities(), TopK(1, ascending = true),
      bandwidthMBps = 1e6)
    assert(res.transferredBytes > 0)
    assert(res.transferSeconds > 0)
  }

  test("MIDDLEWARE transfer time scales inversely with bandwidth") {
    val fast = MiddlewareBaseline.topK(sales, Specs.symCities(), TopK(1, ascending = true),
      bandwidthMBps = 1e6)
    val slow = MiddlewareBaseline.topK(sales, Specs.symCities(), TopK(1, ascending = true),
      bandwidthMBps = 1e3)
    assert(slow.transferSeconds > fast.transferSeconds * 100)
  }

  test("baselines agree with COMPARE on a Table-4 workload at toy scale") {
    val flight = repro.flight.FlightData.flights(spark, nAirports = 12, nDays = 40, rowsPerCell = 2).cache()
    val q = Workloads.flightQ2
    val cmp = CompareSession.compare(flight, q.spec, Some(q.topK))
    val cmpScores = cmp.collect().map(_.getAs[Double]("score"))
      .map(s => math.rint(s * 1e4) / 1e4).sorted.toSeq
    val udf = UdfBaseline.topK(flight, q.spec, q.topK)
    val mw = MiddlewareBaseline.topK(flight, q.spec, q.topK, bandwidthMBps = 1e6)
    assert(TestUtil.scoreBag(udf.pairs) == cmpScores)
    assert(TestUtil.scoreBag(mw.pairs) == cmpScores)
  }
}
