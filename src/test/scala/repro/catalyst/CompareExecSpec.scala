package repro.catalyst

import org.apache.spark.sql.{DataFrame, ReproBridge, Row}
import org.apache.spark.sql.execution.ExpandExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.core._
import repro.{SparkSpec, TestData, TestUtil}

/** The Catalyst path — CompareNode → CompareStrategy → CompareTopKExec —
  * must agree with the DataFrame strategies (which are oracle-checked) on
  * every grid point, and must actually plan through the custom physical
  * operator.
  */
class CompareExecSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()

  for ((name, spec) <- Specs.grid) {
    test(s"physical operator == basic plan: $name") {
      TestUtil.assertSameResult(
        CompareSession.compare(sales, spec, None),
        BasicExec.run(sales, spec),
        name)
    }
  }

  test("the plan actually contains CompareTopKExec") {
    val df = CompareSession.compare(sales, Specs.symCities(), None)
    assert(CompareTopKExec.in(df).isDefined, s"plan was:\n${ReproBridge.executedPlan(df)}")
  }

  test("logical plan shows the Compare node with its spec") {
    val df = CompareSession.compare(sales, Specs.ex1a(), Some(TopK(3, ascending = true)))
    val logical = ReproBridge.analyzedPlan(df)
    assert(logical.exists(_.isInstanceOf[CompareNode]))
    assert(logical.treeString.contains("USING SUM OVER DIFF(2)"))
  }

  for ((name, spec) <- Specs.gridSmall; asc <- Seq(true, false)) {
    test(s"fused top-k (${if (asc) "ASC" else "DESC"}) matches driver-side Φp: $name") {
      val k = TopK(3, asc)
      val viaExec = CompareSession.compare(sales, spec, Some(k))
        .collect().map(_.getAs[Double]("score")).map(s => math.rint(s * 1e4) / 1e4).sorted.toSeq
      val (viaApi, _) = Compare.topK(sales, spec, k)
      val expect = viaApi.collect().map(_.getAs[Double]("score")).map(s => math.rint(s * 1e4) / 1e4).sorted.toSeq
      assert(viaExec == expect, name)
    }
  }

  test("fused top-k populates pruning statistics") {
    val df = CompareSession.compare(sales, Specs.symCities(), Some(TopK(1, ascending = false)))
    df.collect()
    val metrics = CompareTopKExec.in(df).map(_.metrics)
    assert(metrics.isDefined)
    assert(metrics.get("trends").value == 16)
    assert(metrics.get("pairs").value == 8 * 7 / 2)
    assert(metrics.get("tuplesCompared").value > 0)
  }

  test("the trend aggregate is an Expand and a HashAggregate under CompareTopKExec") {
    val df = CompareSession.compare(sales, Specs.symCitiesMulti(), None)
    df.collect()
    val exec = CompareTopKExec.in(df).get
    assert(Plans.collect(exec.child) { case e: ExpandExec => e }.size == 1, exec.treeString)
    assert(Plans.collect(exec.child) { case a: HashAggregateExec => a }.size == 2, exec.treeString)
  }

  test("every (g, m) of the merged-aggregate stage reads the materialized aggregate") {
    val df = Compare.all(sales, Specs.symCitiesMulti(), Compare.ExecStrategy.MergedOnly)
    df.collect()
    val plan = ReproBridge.executedPlan(df)
    assert(Plans.collect(plan) { case s: InMemoryTableScanExec => s }.isEmpty, plan.treeString)
    assert(Plans.collect(plan) { case e: ExpandExec => e }.isEmpty, plan.treeString)
  }

  test("single-sided optimization handles symmetric trendsets correctly") {
    // spec.t1 == spec.t2 → one aggregation pass serves both sides.
    val spec = Specs.symCitiesMulti()
    TestUtil.assertSameResult(
      CompareSession.compare(sales, spec, None),
      BasicExec.run(sales, spec))
  }

  test("empty-string constraint and grouping values match basic and the oracle") {
    // The trend builder's shuffle key ends with the grouping value, so an
    // empty one must survive splitting the key.
    val values = Seq("", "A", "B", "C")
    val df = spark.createDataFrame(for {
      (city, ci) <- values.zipWithIndex
      (week, wi) <- values.zipWithIndex
    } yield (city, week, (ci + 1) * (wi + 1) + 0.37 * ci * ci)).toDF("city", "week", "revenue")
    val ts = TrendsetSpec(Seq(ConstraintTerm("city", None)),
      Seq(GroupingMeasure("week", AggKind.Sum, "revenue")))
    val spec = CompareSpec(ts, ts, Specs.scorer())
    val basic = BasicExec.run(df, spec)
    assert(basic.count() == 4 * 3 / 2)
    TestUtil.checkOracle(basic, spec, "t", df)

    val all = CompareSession.compare(df, spec, None)
    TestUtil.assertSameResult(all, basic)
    TestUtil.checkOracle(all, spec, "t", df)

    val k = TopK(2, ascending = true)
    val expect = basic.orderBy("score").limit(k.k)
    TestUtil.assertSameResult(CompareSession.compare(df, spec, Some(k)), expect)
    TestUtil.assertSameResult(Compare.topK(df, spec, k)._1, expect)
  }

  // ---- edge cases of the trend builder: NULLs, empty input, DECIMAL keys,
  // two sides over one scan

  private val edgeSchema = StructType(Seq(
    StructField("city", StringType), StructField("product", StringType),
    StructField("week", IntegerType), StructField("revenue", DoubleType)))

  /** Four cities × four weeks, with scores that do not tie. */
  private val edgeRows: Seq[Row] = for {
    (city, ci) <- Seq("A", "B", "C", "D").zipWithIndex
    week <- 1 to 4
  } yield Row(city, s"P${(ci + week) % 2}", week, (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week)

  private def edgeDf(rows: Seq[Row]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), edgeSchema)

  private val weekSum = GroupingMeasure("week", AggKind.Sum, "revenue")
  private def symCity(gm: GroupingMeasure = weekSum): CompareSpec = {
    val ts = TrendsetSpec(Seq(ConstraintTerm("city", None)), Seq(gm))
    CompareSpec(ts, ts, Specs.scorer())
  }

  /** Every city against city B (Q1 style: a free and a fixed side). */
  private val cityVsB = CompareSpec(
    TrendsetSpec(Seq(ConstraintTerm("city", None)), Seq(weekSum)),
    TrendsetSpec(Seq(ConstraintTerm("city", Some("B"))), Seq(weekSum)),
    Specs.scorer())

  /** Both entry points to the trend builder — the operator (all pairs and
    * top-k) and `TrendCollector` → Φp — and the merged-aggregate stage
    * against the basic plan, which is itself checked against the DuckDB
    * oracle.
    */
  private def checkEdge(df: DataFrame, spec: CompareSpec, expectedRows: Long): Unit = {
    val basic = BasicExec.run(df, spec)
    assert(basic.count() == expectedRows)
    TestUtil.checkOracle(basic, spec, "t", df)
    TestUtil.assertSameResult(Compare.all(df, spec, Compare.ExecStrategy.MergedOnly), basic)

    val all = CompareSession.compare(df, spec, None)
    TestUtil.assertSameResult(all, basic)
    TestUtil.checkOracle(all, spec, "t", df)
    val (t1, t2) = TrendCollector.collect(df, spec)
    val exhaustive = PrunedTopK.run(spec, t1, t2, TopK(Int.MaxValue, ascending = true),
      PrunedTopK.Config(usePruning = false))
    TestUtil.assertSameResult(CompareOutput.toDf(spark, spec, exhaustive.pairs), basic)

    val k = TopK(2, ascending = true)
    val expect = basic.orderBy("score").limit(k.k)
    TestUtil.assertSameResult(CompareSession.compare(df, spec, Some(k)), expect)
    TestUtil.assertSameResult(Compare.topK(df, spec, k)._1, expect)
  }

  test("edge: a NULL grouping value belongs to no trend") {
    val df = edgeDf(edgeRows ++ Seq(Row("A", "P0", null, 5.0), Row("B", "P1", null, 7.0)))
    checkEdge(df, symCity(), 4 * 3 / 2)
  }

  test("edge: NULL measures are ignored inside a trend") {
    // A NULL next to a value in (A, 2); (B, 3) holds only a NULL.
    val rows = edgeRows.filterNot(r => r.get(0) == "B" && r.get(2) == 3) ++
      Seq(Row("A", "P0", 2, null), Row("B", "P0", 3, null))
    checkEdge(edgeDf(rows), symCity(), 4 * 3 / 2)
    checkEdge(edgeDf(rows), symCity(GroupingMeasure("week", AggKind.Avg, "revenue")), 4 * 3 / 2)
  }

  test("edge: a NULL constraint value forms a trend") {
    val df = edgeDf(edgeRows ++ (1 to 4).map(w => Row(null, "P0", w, 2.5 * w + 0.3)))
    // Fixed product against every city, NULL city included (Q1 style, two sides).
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("product", Some("P0"))), Seq(weekSum)),
      TrendsetSpec(Seq(ConstraintTerm("city", None)), Seq(weekSum)),
      Specs.scorer())
    checkEdge(df, spec, 5)
    // Pair conditions are SQL's three-valued logic: NULL < 'A' and
    // NULL <> 'B' are unknown, so the NULL city is in no city-vs-city pair.
    checkEdge(df, symCity(), 4 * 3 / 2)
    checkEdge(df, cityVsB, 3)
  }

  test("edge: empty input yields no pairs") {
    val empty = edgeDf(Nil)
    checkEdge(empty, symCity(), 0)
    checkEdge(empty, cityVsB, 0)
  }

  test("edge: DECIMAL grouping values are keyed as CAST(… AS STRING)") {
    val df = edgeDf(edgeRows).withColumn("week", (col("week") * 1.5).cast(DecimalType(4, 1)))
    checkEdge(df, symCity(), 4 * 3 / 2)
  }

  test("edge: a fixed and a free side share one scan") {
    checkEdge(edgeDf(edgeRows), cityVsB, 3)
    val df = CompareSession.compare(edgeDf(edgeRows), cityVsB, None)
    df.collect()
    val exec = CompareTopKExec.in(df).get
    assert(Plans.collect(exec.child) { case e: ExpandExec => e }.size == 1, exec.treeString)
  }

  test("operator resolves columns case-insensitively") {
    val upper = sales.toDF(sales.columns.map(_.toUpperCase): _*)
    val df = CompareSession.compare(upper, Specs.symCities(), None)
    assert(df.count() == 8 * 7 / 2)
  }

  test("operator fails fast on a missing column") {
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("nosuchcol", None)), Seq(Specs.weekRev)),
      TrendsetSpec(Seq(ConstraintTerm("nosuchcol", None)), Seq(Specs.weekRev)),
      Specs.scorer())
    val ex = intercept[Exception] {
      CompareSession.compare(sales, spec, None).collect()
    }
    assert(ex.getMessage != null)
  }

  test("operator handles date-typed grouping columns") {
    import org.apache.spark.sql.functions._
    val withDate = sales.withColumn("wdate",
      date_add(lit("2020-01-06").cast("date"), (col("week") - 1) * 7))
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("city", None)),
        Seq(GroupingMeasure("wdate", AggKind.Avg, "revenue"))),
      TrendsetSpec(Seq(ConstraintTerm("city", None)),
        Seq(GroupingMeasure("wdate", AggKind.Avg, "revenue"))),
      Specs.scorer())
    TestUtil.assertSameResult(
      CompareSession.compare(withDate, spec, None),
      BasicExec.run(withDate, spec))
  }
}

/** Plan traversal that looks inside adaptive query stages. */
private object Plans extends AdaptiveSparkPlanHelper
