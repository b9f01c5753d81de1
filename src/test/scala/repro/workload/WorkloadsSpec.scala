package repro.workload

import org.apache.spark.sql.DataFrame
import repro.catalyst.CompareSession
import repro.core._
import repro.flight.FlightData
import repro.tpcds.WebSalesData
import repro.{SparkSpec, TestUtil}

/** Table 4's Q1–Q4 workload definitions: pair-mode structure and end-to-end
  * correctness at toy scale (including oracle checks on the Flight schema).
  */
class WorkloadsSpec extends SparkSpec {

  private lazy val flight = FlightData.flights(spark, nAirports = 10, nDays = 30,
    rowsPerCell = 2).cache()
  private lazy val websales = WebSalesData.webSales(spark, rows = 10000, nWebPages = 10,
    nItems = 20, nDays = 15).cache()

  /** Rounded scores of the operator's top-k under Φp configuration `cfg`. */
  private def topKScores(df: DataFrame, q: Workloads.Query,
                         cfg: PrunedTopK.Config = PrunedTopK.Config()): Seq[Double] =
    CompareSession.compare(df, q.spec, Some(q.topK), cfg).collect()
      .map(r => math.rint(r.getAs[Double]("score") * 1e4) / 1e4).sorted.toSeq

  test("Q1 is one-to-many with self-pair excluded") {
    val q = Workloads.flightQ1
    assert(q.spec.pairMode == PairMode.CrossConstraint)
    assert(q.spec.excludeIdenticalConstraint)
    val n = BasicExec.run(flight, q.spec).count()
    assert(n == 9) // 10 airports minus the fixed one
  }

  test("Q2 is many-to-many symmetric: N(N-1)/2 pairs") {
    val q = Workloads.flightQ2
    assert(q.spec.pairMode == PairMode.SymmetricConstraint)
    assert(BasicExec.run(flight, q.spec).count() == 10 * 9 / 2)
  }

  test("Q3 is one-to-one with varying attributes (cross-measure pairs)") {
    val q = Workloads.flightQ3
    assert(q.spec.pairMode == PairMode.CrossMeasure)
    // 10 gms over groupings {day, week}: per grouping C(5,2)=10 pairs → 20.
    assert(q.spec.comparableGmPairs.size == 20)
    assert(BasicExec.run(flight, q.spec).count() == 20)
  }

  test("Q4 is many-to-many over 10 (g, m): 10 × N(N-1)/2 pairs") {
    val q = Workloads.flightQ4
    assert(BasicExec.run(flight, q.spec).count() == 10L * (10 * 9 / 2))
  }

  for (q <- Seq(Workloads.flightQ1, Workloads.flightQ2, Workloads.flightQ3)) {
    test(s"${q.id} basic plan matches DuckDB oracle at toy scale") {
      TestUtil.checkOracle(BasicExec.run(flight, q.spec), q.spec, "flights", flight)
    }
    test(s"${q.id} trendwise == basic") {
      TestUtil.assertSameResult(
        CompareSession.compare(flight, q.spec), BasicExec.run(flight, q.spec), q.id)
    }
    test(s"${q.id} pruned top-k == exhaustive top-k") {
      assert(topKScores(flight, q) == topKScores(flight, q, PrunedTopK.Config(usePruning = false)))
    }
  }

  for (q <- Seq(Workloads.tpcdsQ1, Workloads.tpcdsQ2, Workloads.tpcdsQ3)) {
    test(s"${q.id} trendwise == basic on websales") {
      TestUtil.assertSameResult(
        CompareSession.compare(websales, q.spec), BasicExec.run(websales, q.spec), q.id)
    }
  }

  test("TPCDS Q4 pruned top-k == exhaustive") {
    val q = Workloads.tpcdsQ4
    assert(topKScores(websales, q) == topKScores(websales, q, PrunedTopK.Config(usePruning = false)))
  }
}
