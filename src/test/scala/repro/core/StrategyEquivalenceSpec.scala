package repro.core

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

  // The DataFrame entry to the trend builder (`TrendCollector` → Φp);
  // CompareExecSpec checks the operator entry on the same grid.
  for ((name, spec) <- Specs.grid) {
    test(s"trendwise (merge+partition) == basic: $name") {
      val all = TopK(Int.MaxValue, ascending = true)
      TestUtil.assertSameResult(
        Compare.topK(sales, spec, all, PrunedTopK.Config(usePruning = false))._1,
        Compare.all(sales, spec, Compare.ExecStrategy.Basic),
        name)
    }
  }

  for ((name, spec) <- Specs.gridSmall) {
    test(s"merged-only == basic: $name") {
      TestUtil.assertSameResult(
        Compare.all(sales, spec, Compare.ExecStrategy.MergedOnly, Some(stats)),
        Compare.all(sales, spec, Compare.ExecStrategy.Basic),
        name)
    }
    test(s"trendwise matches DuckDB oracle directly: $name") {
      TestUtil.checkOracle(
        Compare.all(sales, spec, Compare.ExecStrategy.Full),
        spec, "sales", sales)
    }
  }
}
