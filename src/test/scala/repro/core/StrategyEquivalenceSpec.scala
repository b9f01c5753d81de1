package repro.core

import repro.{SparkSpec, TestData, TestUtil}

/** The §4.2 optimizations are rewrites, not semantic changes: merged-aggregate
  * execution and the trendwise COMPARE operator must produce exactly the
  * basic plan's result on every grid point, and the trendwise path is
  * additionally oracle-checked.
  */
class StrategyEquivalenceSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()
  private lazy val stats =
    Stats.collect(sales, Seq("region", "city", "product", "week", "month", "country"))

  for ((name, spec) <- Specs.grid) {
    test(s"trendwise (merge+partition) == basic: $name") {
      TestUtil.assertSameResult(
        Compare.all(sales, spec, Compare.ExecStrategy.Full, Some(stats)),
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
        Compare.all(sales, spec, Compare.ExecStrategy.Full, Some(stats)),
        spec, "sales", sales)
    }
  }
}
