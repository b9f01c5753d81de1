package repro.core

import repro.catalyst.CompareSession
import repro.{SparkSpec, TestData}

/** §3.2: COMPARE composed with ORDER BY / LIMIT / join-back to select the
  * tuples of the top-k trends.
  */
class TopKJoinSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 1500).cache()

  test("top-1 most-similar pair of cities matches exhaustive scoring") {
    val spec = Specs.symCities()
    val top = CompareSession.compare(sales, spec, Some(TopK(1, ascending = true)))
    val full = BasicExec.run(sales, spec).collect()
      .sortBy(r => (r.getAs[Double]("score"), r.getAs[String]("city_1")))
    val t = top.collect().head
    assert(math.abs(t.getAs[Double]("score") - full.head.getAs[Double]("score")) < 1e-6)
  }

  test("topKJoin returns base tuples of both trends in the top pair (example 2a)") {
    val spec = Specs.symCities()
    val top = CompareSession.compare(sales, spec, Some(TopK(1, ascending = true)))
    val pair = top.collect().head
    val c1 = pair.getAs[String]("city_1"); val c2 = pair.getAs[String]("city_2")
    val joined = Compare.topKJoin(sales, spec, TopK(1, ascending = true))
    val cities = joined.select("city").distinct().collect().map(_.getString(0)).toSet
    assert(cities == Set(c1, c2))
    // Every returned tuple carries the pair's score.
    val scores = joined.select("score").distinct().collect().map(_.getDouble(0)).toSeq
    assert(scores.size == 1)
  }

  test("topKJoin row count equals the base tuple count of the two trends") {
    val spec = Specs.symCities()
    val top = CompareSession.compare(sales, spec, Some(TopK(1, ascending = false)))
    val pair = top.collect().head
    val expected = sales
      .where(sales("city").isin(pair.getAs[String]("city_1"), pair.getAs[String]("city_2")))
      .count()
    assert(Compare.topKJoin(sales, spec, TopK(1, ascending = false)).count() == expected)
  }

  test("example 1a end-to-end: most different product from Asia's overall trend") {
    val spec = Specs.ex1a()
    val top = CompareSession.compare(sales, spec, Some(TopK(1, ascending = false)))
    val best = top.collect().head
    val product = best.getAs[String]("product_2")
    // Verify against exhaustive scoring.
    val all = BasicExec.run(sales, spec).collect()
    val expect = all.maxBy(_.getAs[Double]("score"))
    assert(product == expect.getAs[String]("product_2"))
  }

  test("ascending and descending top-1 differ on separable data") {
    val spec = Specs.symCities()
    val lo = CompareSession.compare(sales, spec, Some(TopK(1, ascending = true)))
    val hi = CompareSession.compare(sales, spec, Some(TopK(1, ascending = false)))
    assert(lo.collect().head.getAs[Double]("score") <
      hi.collect().head.getAs[Double]("score"))
  }

  test("top-k scores agree with oracle-ranked scores") {
    val spec = Specs.symCities()
    val k = 5
    val top = CompareSession.compare(sales, spec, Some(TopK(k, ascending = true)))
    val oracleScores = BasicExec.run(sales, spec).collect()
      .map(_.getAs[Double]("score")).sorted.take(k)
    val got = top.collect().map(_.getAs[Double]("score")).sorted
    got.zip(oracleScores).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6) }
  }
}
