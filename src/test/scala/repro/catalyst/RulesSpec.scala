package repro.catalyst

import org.apache.spark.sql.ReproBridge
import org.apache.spark.sql.functions._
import repro.core._
import repro.tpcds.WebSalesData
import repro.{SparkSpec, TestData, TestUtil}

/** Transformation rules of §6 (Table 3): each rule must (a) fire on the
  * intended plan shape, (b) not fire without its precondition, and (c)
  * preserve results.
  */
class RulesSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 1500).cache()
  private lazy val fact = WebSalesData.webSales(spark, rows = 40000, nWebPages = 12,
    nItems = 20, nDays = 20).cache()
  private lazy val dim = WebSalesData.webPage(spark, nWebPages = 12).cache()

  private def wsSpec(constraintAttr: String): CompareSpec = {
    val gm = GroupingMeasure("ws_item_sk", AggKind.Avg, "ws_net_profit")
    CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm(constraintAttr, None)), Seq(gm)),
      TrendsetSpec(Seq(ConstraintTerm(constraintAttr, None)), Seq(gm)),
      Scorer(AggKind.Sum, 2))
  }

  // ---------------------------------------------------------------- R1

  test("R1 pushes COMPARE below a registered PK-FK join") {
    PkFkHints.clear()
    PkFkHints.register(pk = "wp_web_page_sk", fk = "ws_web_page_sk")
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))
    val node = CompareNode(wsSpec("wp_web_page_sk"), None, ReproBridge.analyzedPlan(joined))
    val rewritten = PushCompareBelowJoin(node)
    val cn = rewritten.collectFirst { case c: CompareNode => c }.get
    assert(!cn.child.exists(_.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Join]),
      s"join should be eliminated:\n$rewritten")
    assert(cn.spec.t1.attrs == Seq("ws_web_page_sk"), "PK replaced by FK")
    assert(cn.output == node.output, "output attributes preserved")
  }

  test("R1 preserves results (referential integrity holds by construction)") {
    PkFkHints.clear()
    PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))
    val node = CompareNode(wsSpec("wp_web_page_sk"), None, ReproBridge.analyzedPlan(joined))
    val before = ReproBridge.ofRows(spark, node)
    val after  = ReproBridge.ofRows(spark, PushCompareBelowJoin(node))
    // The rule preserves output attributes (names included); values are equal
    // since FK = PK on every joined row.
    TestUtil.assertSameResult(before, after)
  }

  test("R1 does not fire without a PK-FK hint") {
    PkFkHints.clear()
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))
    val node = CompareNode(wsSpec("wp_web_page_sk"), None, ReproBridge.analyzedPlan(joined))
    assert(PushCompareBelowJoin(node) == node)
  }

  test("R1 does not fire when COMPARE needs other dimension columns") {
    PkFkHints.clear()
    PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))
    // Constraint on wp_type (a non-PK dim column) blocks the pushdown.
    val gm = GroupingMeasure("ws_item_sk", AggKind.Avg, "ws_net_profit")
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("wp_type", None)), Seq(gm)),
      TrendsetSpec(Seq(ConstraintTerm("wp_type", None)), Seq(gm)),
      Scorer(AggKind.Sum, 2))
    val node = CompareNode(spec, None, ReproBridge.analyzedPlan(joined))
    val rewritten = PushCompareBelowJoin(node)
    assert(rewritten.collectFirst { case c: CompareNode => c }.get
      .child.exists(_.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Join]))
  }

  // ---------------------------------------------------------------- R3

  test("R3 pushes a both-sides partition-column filter below COMPARE") {
    val cmp = CompareSession.compare(sales, Specs.symCities(), None)
    val filtered = cmp.where(col("city_1").isin("City1", "City2", "City3") &&
      col("city_2").isin("City1", "City2", "City3"))
    val optimized = ReproBridge.optimizedPlan(filtered)
    val cn = optimized.collectFirst { case c: CompareNode => c }.get
    assert(cn.child.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Filter],
      s"expected pushed filter below CompareNode:\n$optimized")
    // Correctness: equals filtering the exhaustive result.
    val expect = BasicExec.run(sales, Specs.symCities())
      .where(col("city_1").isin("City1", "City2", "City3") &&
        col("city_2").isin("City1", "City2", "City3"))
    TestUtil.assertSameResult(filtered, expect)
  }

  test("R3 does not push a single-sided filter (would change results)") {
    val cmp = CompareSession.compare(sales, Specs.symCities(), None)
    val filtered = cmp.where(col("city_1") === "City1")
    val optimized = ReproBridge.optimizedPlan(filtered)
    val cn = optimized.collectFirst { case c: CompareNode => c }.get
    assert(!cn.child.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Filter])
    val expect = BasicExec.run(sales, Specs.symCities()).where(col("city_1") === "City1")
    TestUtil.assertSameResult(filtered, expect)
  }

  test("a non-default Φp config survives R1 and R3") {
    val cfg = PrunedTopK.Config(numSegments = Some(2), usePruning = false)
    PkFkHints.clear()
    PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))
    val node = CompareNode(wsSpec("wp_web_page_sk"), None, ReproBridge.analyzedPlan(joined), cfg)
    val pushed = PushCompareBelowJoin(node).collectFirst { case c: CompareNode => c }.get
    assert(pushed.spec != node.spec, "R1 must fire")
    assert(pushed.cfg == cfg)

    val filtered = CompareSession.compare(sales, Specs.symCities(), None, cfg)
      .where(col("city_1").isin("City1", "City2") && col("city_2").isin("City1", "City2"))
    val cn = ReproBridge.optimizedPlan(filtered).collectFirst { case c: CompareNode => c }.get
    assert(cn.child.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Filter], "R3 must fire")
    assert(cn.cfg == cfg)
  }

  // ---------------------------------------------------------------- R2

  private def minMaxSpec: CompareSpec = {
    val gm = GroupingMeasure("week", AggKind.Max, "revenue")
    CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("city", None)), Seq(gm)),
      TrendsetSpec(Seq(ConstraintTerm("city", None)), Seq(gm)),
      Scorer(AggKind.Sum, 2))
  }

  test("R2 inserts a dedup aggregate below MIN/MAX COMPARE") {
    val node = CompareNode(minMaxSpec, None, ReproBridge.analyzedPlan(sales))
    val rewritten = DedupBelowCompare(node)
    val cn = rewritten.collectFirst { case c: CompareNode => c }.get
    assert(cn.child.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Aggregate])
  }

  test("R2 is idempotent (no infinite re-dedup)") {
    val node = CompareNode(minMaxSpec, None, ReproBridge.analyzedPlan(sales))
    val once = DedupBelowCompare(node)
    assert(DedupBelowCompare(once) == once)
  }

  test("R2 preserves results for MAX trends") {
    val node = CompareNode(minMaxSpec, None, ReproBridge.analyzedPlan(sales))
    TestUtil.assertSameResult(
      ReproBridge.ofRows(spark, node),
      ReproBridge.ofRows(spark, DedupBelowCompare(node)))
  }

  test("R2 does not fire for AVG measures (duplicates matter)") {
    val node = CompareNode(Specs.symCities(), None, ReproBridge.analyzedPlan(sales))
    assert(DedupBelowCompare(node) == node)
  }

  // ---------------------------------------------------------------- R5

  private def comparativeSql(c: String, g: String): String =
    s"""SELECT a.c AS c1, b.c AS c2, SUM(POWER(ABS(a.v - b.v), 2)) AS score
      |FROM (SELECT $c AS c, $g AS g, AVG(revenue) AS v FROM sales GROUP BY $c, $g) a
      |JOIN (SELECT $c AS c, $g AS g, AVG(revenue) AS v FROM sales GROUP BY $c, $g) b
      |  ON a.g = b.g AND a.c < b.c
      |GROUP BY a.c, b.c""".stripMargin

  private val comparativeSql: String = comparativeSql("city", "week")

  test("R5 recognizes the hand-written comparative sub-plan") {
    sales.createOrReplaceTempView("sales")
    val df = spark.sql(comparativeSql)
    val rewritten = ReduceToCompare(ReproBridge.optimizedPlan(df))
    assert(rewritten.exists(_.isInstanceOf[CompareNode]),
      s"no CompareNode in:\n$rewritten\nfrom:\n${ReproBridge.optimizedPlan(df)}")
  }

  test("R5 rewrite preserves results") {
    sales.createOrReplaceTempView("sales")
    for (sql <- Seq(comparativeSql, comparativeSql("week", "city"))) {
      val df = spark.sql(sql)
      val rewritten = ReduceToCompare(ReproBridge.optimizedPlan(df))
      TestUtil.assertSameResult(df, ReproBridge.ofRows(spark, rewritten), sql)
    }
    // COMPARE orders constraint values as strings, so an INT column (12
    // weeks) is left to the hand-written plan.
    val intPlan = ReproBridge.optimizedPlan(spark.sql(comparativeSql("week", "city")))
    assert(ReduceToCompare(intPlan) == intPlan)
  }

  test("R5 leaves non-comparative aggregates alone") {
    sales.createOrReplaceTempView("sales")
    val df = spark.sql("SELECT city, SUM(revenue) AS r FROM sales GROUP BY city")
    val plan = ReproBridge.optimizedPlan(df)
    assert(ReduceToCompare(plan) == plan)
  }

  test("R5 installed in the optimizer plans straight to CompareTopKExec") {
    sales.createOrReplaceTempView("sales")
    val rules = spark.experimental.extraOptimizations
    spark.experimental.extraOptimizations = rules :+ ReduceToCompare
    try {
      val df = spark.sql(comparativeSql)
      assert(CompareTopKExec.in(df).isDefined, s"plan:\n${ReproBridge.executedPlan(df)}")
      // And it still returns the semantics of the symCities COMPARE.
      val expect = BasicExec.run(sales, Specs.symCities())
        .select(col("city_1").as("c1"), col("city_2").as("c2"), col("score"))
      TestUtil.assertSameResult(df, expect)
    } finally spark.experimental.extraOptimizations = rules
  }
}
