package repro.catalyst

import org.apache.spark.sql.ReproBridge
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
    val physical = ReproBridge.executedPlan(df)
    assert(physical.exists(_.isInstanceOf[CompareTopKExec]),
      s"plan was:\n$physical")
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
    CompareTopKExec.lastStats = None
    CompareSession.compare(sales, Specs.symCities(), Some(TopK(1, ascending = false))).collect()
    val stats = CompareTopKExec.lastStats
    assert(stats.isDefined)
    assert(stats.get.pairsTotal == 8 * 7 / 2)
    assert(stats.get.tuplesCompared > 0)
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
