package repro.bench

import repro.SparkSpec

/** Figure 15: parallelism scaling and the Φp memory overhead. */
class ParallelismBench extends SparkSpec {

  test("Fig 15: COMPARE ahead across the parallelism sweep; memory overhead tiny") {
    val (dop, mem) = Experiments.parallelism(spark)
    // COMPARE (trendwise) is faster than the basic plan at every width.
    dop.foreach(r => assert(r.compare < r.basic,
      s"partitions=${r.partitions}: compare ${r.compare}s vs basic ${r.basic}s"))
    // Summary structures stay far below the paper's <13% overhead bound.
    val inputBytes = Experiments.FlightInputBytes
    mem.foreach { case (q, b) =>
      assert(b > 0, s"$q: no summary stats recorded")
      assert(b.toDouble / inputBytes < 0.13, s"$q: overhead ${b.toDouble / inputBytes}")
    }
  }
}
