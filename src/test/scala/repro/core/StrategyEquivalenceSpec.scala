package repro.core

import repro.catalyst.CompareSession
import repro.{SparkSpec, TestData, TestUtil}

/** The §4.2 optimizations are rewrites, not semantic changes: merged-aggregate
  * execution and trendwise scoring over the shared-scan trends must produce
  * exactly the basic plan's result on every grid point, and the COMPARE
  * operator is additionally oracle-checked.
  */
class StrategyEquivalenceSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()
  private lazy val stats =
    Stats.collect(sales, Seq("region", "city", "product", "week", "month", "country"))

  // The operator with pruning on and a k above the pair count: Φp refines
  // every pair segment at a time to its exact score. CompareExecSpec checks
  // the exhaustive (no top-k) operator on the same grid.
  for ((name, spec) <- Specs.grid) {
    test(s"trendwise (merge+partition) == basic: $name") {
      TestUtil.assertSameResult(
        CompareSession.compare(sales, spec, Some(TopK(Int.MaxValue, ascending = true))),
        BasicExec.run(sales, spec),
        name)
    }
  }

  for ((name, spec) <- Specs.gridSmall) {
    test(s"merged-only == basic: $name") {
      TestUtil.assertSameResult(
        BasicExec.runMerged(sales, spec, Some(stats)),
        BasicExec.run(sales, spec),
        name)
    }
    test(s"trendwise matches DuckDB oracle directly: $name") {
      TestUtil.checkOracle(CompareSession.compare(sales, spec), spec, "sales", sales)
    }
  }
}
