package repro.catalyst

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, ReproBridge, Row}
import org.apache.spark.sql.catalyst.expressions.EqualTo
import org.apache.spark.sql.execution.{ExpandExec, FilterExec}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, AdaptiveSparkPlanHelper, ShuffleQueryStageExec}
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.{col, hash, lit, pmod, spark_partition_id}
import org.apache.spark.sql.types._
import repro.baselines.{MiddlewareBaseline, UdfBaseline}
import repro.core._
import repro.flight.FlightData
import repro.workload.Workloads
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

  test("EXPLAIN shows a non-default Φp config; the default one adds nothing") {
    val cfg = PrunedTopK.Config(numSegments = Some(3), useEarlyTermination = false)
    val df = CompareSession.compare(sales, Specs.ex1a(), Some(TopK(3, ascending = true)), cfg)
    val explained = new java.io.ByteArrayOutputStream()
    Console.withOut(explained)(df.explain(true))
    val lines = explained.toString.split("\n")
    for (op <- Seq("Compare COMPARE", "CompareTopK COMPARE"))
      assert(lines.exists(l => l.contains(op) && l.contains(cfg.toString)), explained.toString)

    val node = CompareNode(Specs.ex1a(), Some(TopK(3, ascending = true)), ReproBridge.analyzedPlan(sales))
    assert(node.simpleString(10) == s"Compare ${Specs.ex1a()} TOP 3 ASC")
  }

  // The operator's top-k against the basic plan's scores ordered and cut at k.
  for ((name, spec) <- Specs.gridSmall; asc <- Seq(true, false)) {
    test(s"fused top-k (${if (asc) "ASC" else "DESC"}) matches driver-side Φp: $name") {
      val k = TopK(3, asc)
      def scores(df: DataFrame): Seq[Double] = df.collect().map(_.getAs[Double]("score")).sorted.toSeq
      val viaExec = scores(CompareSession.compare(sales, spec, Some(k)))
      val expect = scores(BasicExec.run(sales, spec)
        .orderBy(if (asc) col("score").asc else col("score").desc).limit(k.k))
      assert(viaExec.size == expect.size && viaExec.lazyZip(expect).forall((a, b) =>
        math.abs(a - b) <= TestUtil.RelTol * math.max(1.0, math.abs(b))), s"$name: $viaExec vs $expect")
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
    for (phase <- Seq("collectTime", "trendTime", "boundTime", "searchTime"))
      assert(metrics.get.contains(phase), phase)
  }

  /** `df`'s rows behind an RDD, whose size Catalyst does not know (it
    * assumes the largest).
    */
  private def unsized(df: DataFrame): DataFrame = spark.createDataFrame(df.rdd, df.schema)

  // The partial aggregate alone, whose rows are merged on the driver: no
  // shuffle, whatever the size estimate of the input.
  test("the trend aggregate is an Expand and a HashAggregate under CompareTopKExec") {
    for (input <- Seq(sales, unsized(sales))) {
      val df = CompareSession.compare(input, Specs.symCitiesMulti(), None)
      df.collect()
      val exec = CompareTopKExec.in(df).get
      assert(Plans.collect(exec.child) { case e: ExpandExec => e }.size == 1, exec.treeString)
      assert(Plans.collect(exec.child) { case a: HashAggregateExec => a }.size == 1, exec.treeString)
      assert(Plans.collect(exec.child) { case s: ShuffleExchangeExec => s }.isEmpty, exec.treeString)
    }
  }

  test("under adaptive execution no shuffle stage runs before the operator") {
    val key = "spark.sql.adaptive.enabled"
    val before = spark.conf.getOption(key)
    spark.conf.set(key, "true")
    try for (input <- Seq(sales, unsized(sales))) {
      // No shuffle, so no adaptive plan: the whole aggregate runs inside the
      // operator's collect, which `collectTime` times.
      val df = CompareSession.compare(input, Specs.symCitiesMulti(), None)
      df.collect()
      val plan = ReproBridge.executedPlan(df)
      assert(Plans.collect(plan) { case s: ShuffleQueryStageExec => s }.isEmpty, plan.treeString)
      assert(!plan.isInstanceOf[AdaptiveSparkPlanExec], plan.treeString)
    } finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  test("every (g, m) of the merged-aggregate stage reads the materialized aggregate") {
    val df = BasicExec.runMerged(sales, Specs.symCitiesMulti(), None)
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
    TestUtil.assertSameResult(udfTopK(df, spec, k), expect)
  }

  /** The UDF baseline's driver-side copy of Φp, in the core output schema. */
  private def udfTopK(df: DataFrame, spec: CompareSpec, k: TopK): DataFrame =
    CompareOutput.toDf(spark, spec, UdfBaseline.topK(df, spec, k).pairs)

  /** The MIDDLEWARE baseline's client-side Φp over its per-(g, m) queries. */
  private def middlewareTopK(df: DataFrame, spec: CompareSpec, k: TopK): DataFrame =
    CompareOutput.toDf(spark, spec, MiddlewareBaseline.topK(df, spec, k, bandwidthMBps = 1e6).pairs)

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

  /** `rows` in two partitions, so a group's partial rows can meet on the driver. */
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

  /** Every user of the trend builder — the operator (all pairs and top-k),
    * the UDF baseline's driver-side `TrendCollector` → Φp and the MIDDLEWARE
    * baseline's per-(g, m) queries → Φp (every pair and top-k each) — and the
    * merged-aggregate stage against the basic plan, which is itself checked
    * against the DuckDB oracle.
    */
  private def checkEdge(df: DataFrame, spec: CompareSpec, expectedRows: Long): Unit = {
    val basic = BasicExec.run(df, spec)
    assert(basic.count() == expectedRows)
    TestUtil.checkOracle(basic, spec, "t", df)
    TestUtil.assertSameResult(BasicExec.runMerged(df, spec, None), basic)

    val all = CompareSession.compare(df, spec, None)
    TestUtil.assertSameResult(all, basic)
    TestUtil.checkOracle(all, spec, "t", df)
    TestUtil.assertSameResult(udfTopK(df, spec, TopK(Int.MaxValue, ascending = true)), basic)
    TestUtil.assertSameResult(middlewareTopK(df, spec, TopK(Int.MaxValue, ascending = true)), basic)

    val k = TopK(2, ascending = true)
    val expect = basic.orderBy("score").limit(k.k)
    TestUtil.assertSameResult(CompareSession.compare(df, spec, Some(k)), expect)
    TestUtil.assertSameResult(udfTopK(df, spec, k), expect)
    TestUtil.assertSameResult(middlewareTopK(df, spec, k), expect)
  }

  test("every trend-building path counts the operator's Φp work") {
    val k = TopK(3, ascending = true)
    val names = Seq("trends", "pairs", "pairsPrunedInitial", "pairsPrunedSearch", "segments",
      "tuplesCompared", "summarySize")
    def counters(st: PrunedTopK.PruneStats): Seq[Long] = Seq(st.trendCount, st.pairsTotal,
      st.pairsPrunedInitial, st.pairsPrunedSearch, st.segmentsProcessed, st.tuplesCompared, st.summaryBytes)
    /** The operator's counters, after checking the other paths' against them. */
    def check(name: String, df: DataFrame, spec: CompareSpec): Seq[Long] = {
      val compared = CompareSession.compare(df, spec, Some(k))
      compared.collect()
      val metrics = CompareTopKExec.in(compared).get.metrics
      val operator = names.map(metrics(_).value)
      val (t1, t2) = TrendCollector.collect(df, spec)
      for ((path, st) <- Seq("PrunedTopK.run" -> PrunedTopK.run(spec, t1, t2, k).stats,
        "UDF" -> UdfBaseline.topK(df, spec, k).stats,
        "MIDDLEWARE" -> MiddlewareBaseline.topK(df, spec, k, bandwidthMBps = 1e6).stats))
        assert(counters(st) == operator, s"$name, $path: ${names.zip(counters(st))} vs ${names.zip(operator)}")
      operator
    }
    check("symCities", sales, Specs.symCities())
    val flight = FlightData.flights(spark, nAirports = 16, nDays = 61, rowsPerCell = 2).cache()
    for (q <- Seq(Workloads.flightQ1, Workloads.flightQ3, Workloads.flightQ4)) check(q.id, flight, q.spec)
    flight.unpersist()
    // Seven weeks give 3 segments, eight would give 4: a week whose every
    // measure is NULL must add no grouping value to the dictionary.
    val rows = for ((city, ci) <- Seq("A", "B", "C", "D").zipWithIndex; week <- 1 to 7)
      yield Row(city, "P0", week, (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week)
    val nullWeek = Seq("A", "B", "C", "D").map(Row(_, "P0", 8, null))
    assert(check("a NULL week", edgeDf(rows ++ nullWeek), symCity()) == check("7 weeks", edgeDf(rows), symCity()))
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

  test("edge: a spec with no comparable (g, m) pair yields no rows") {
    val cityA = TrendsetSpec(Seq(ConstraintTerm("city", Some("A"))), Seq(weekSum))
    val spec = CompareSpec(cityA, cityA, Specs.scorer())
    assert(spec.comparableGmPairs.isEmpty)
    val df = edgeDf(edgeRows)
    val basic = BasicExec.run(df, spec)
    assert(basic.count() == 0)
    TestUtil.assertSameResult(CompareSession.compare(df, spec, None), basic)
    TestUtil.assertSameResult(CompareSession.compare(df, spec, Some(TopK(2, ascending = true))), basic)
    TestUtil.assertSameResult(udfTopK(df, spec, TopK(2, ascending = true)), basic)
    val viaMiddleware = MiddlewareBaseline.topK(df, spec, TopK(2, ascending = true), bandwidthMBps = 1e6)
    assert(viaMiddleware.pairs.isEmpty && viaMiddleware.transferredBytes == 0)
  }

  test("edge: symmetric pairs are oriented in UTF-8 byte order") {
    // U+E000 sorts before U+1F600 in UTF-8 but after its surrogate pair in
    // UTF-16; Spark and DuckDB compare the UTF-8 bytes.
    val rows = for {
      (city, ci) <- Seq("\uE000", "\uD83D\uDE00", "A").zipWithIndex
      week <- 1 to 4
    } yield Row(city, "P0", week, (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week)
    checkEdge(edgeDf(rows), symCity(), 3)
  }

  test("edge: constraint values holding separators survive every path") {
    val rows = for {
      (city, ci) <- Seq("a,b", "x\ny", "q\"r", "null", "A").zipWithIndex
      week <- 1 to 4
    } yield Row(city, "P0", week, (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week)
    checkEdge(edgeDf(rows), symCity(), 5 * 4 / 2)
  }

  /** Φp's three stages: default, no early termination, no pruning. */
  private val phiConfigs = Seq(PrunedTopK.Config(), PrunedTopK.Config(useEarlyTermination = false),
    PrunedTopK.Config(usePruning = false))

  test("edge: a NaN measure scores its pairs NaN, ranked as Spark orders NaN") {
    // (B, 2) is NaN, so B's three pairs score NaN: last ASC, first DESC.
    val df = edgeDf(edgeRows.map(r =>
      if (r.get(0) == "B" && r.get(2) == 2) Row("B", r.get(1), 2, Double.NaN) else r))
    val spec = symCity()
    checkEdge(df, spec, 4 * 3 / 2)
    val basic = BasicExec.run(df, spec)
    // Top-k cuts that fall between two distinct scores.
    for ((k, asc) <- Seq((1, true), (3, true), (3, false), (4, false)); cfg <- phiConfigs) {
      val expect = basic.orderBy(if (asc) col("score").asc else col("score").desc).limit(k)
      TestUtil.assertSameResult(CompareSession.compare(df, spec, Some(TopK(k, asc)), cfg), expect,
        s"top $k ${if (asc) "ASC" else "DESC"}, $cfg:")
    }
    val top4Desc = basic.orderBy(col("score").desc).limit(4)
    TestUtil.assertSameResult(udfTopK(df, spec, TopK(4, ascending = false)), top4Desc)
    TestUtil.assertSameResult(middlewareTopK(df, spec, TopK(4, ascending = false)), top4Desc)
    // MIN and MAX scorers aggregate NaN in the same order: MIN skips it.
    for (agg <- Seq(AggKind.Min, AggKind.Max))
      checkEdge(df, spec.copy(scorer = Scorer(agg, 2)), 4 * 3 / 2)
  }

  test("edge: an infinite measure scores its pairs +∞, and top-k keeps every row") {
    def withValue(cities: Set[String], v: Double): DataFrame = edgeDf(edgeRows.map(r =>
      if (cities(r.getString(0)) && r.get(2) == 2) Row(r.get(0), r.get(1), 2, v) else r))
    val plusInf = withValue(Set("B"), Double.PositiveInfinity)
    val minusInf = withValue(Set("B"), Double.NegativeInfinity)
    // B–C scores NaN (∞ − ∞); the other B and C pairs score +∞.
    val twoInf = withValue(Set("B", "C"), Double.PositiveInfinity)
    val spec = symCity()
    checkEdge(plusInf, spec, 4 * 3 / 2)
    checkEdge(minusInf, spec, 4 * 3 / 2)
    for (df <- Seq(plusInf, minusInf, twoInf)) checkTopKScores(df, spec, 1 to 6)
  }

  test("edge: rounding in a constant segment's bounds does not prune the k-th pair") {
    // Each city's trend is constant, so a segment's lower bound equals its
    // upper bound, and the rounded average (0.1 × 3 / 3 > 0.1) can put the
    // computed lower bound above the upper one.
    for ((values, weeks) <- Seq((Seq("A" -> 0.1, "B" -> 0.0, "C" -> 5.0), 9),
                                (Seq("A" -> 9.99, "B" -> 4.99, "C" -> 0.0), 30))) {
      val df = edgeDf(for ((city, v) <- values; week <- 1 to weeks) yield Row(city, "P0", week, v))
      checkTopKScores(df, symCity(), 1 to 3)
    }
  }

  /** Φp's top k under every config against the basic plan ordered and
    * limited. Tied pairs have no defined order in Spark's sort, so each cut
    * is compared by its row count and the multiset of its scores.
    */
  private def checkTopKScores(df: DataFrame, spec: CompareSpec, ks: Range): Unit = {
    def scores(d: DataFrame): Seq[Double] =
      d.collect().map(_.getAs[Double]("score")).toSeq.sorted(Ordering.Double.TotalOrdering)
    val basic = BasicExec.run(df, spec)
    for (k <- ks; asc <- Seq(true, false); cfg <- phiConfigs) {
      val hint = s"top $k ${if (asc) "ASC" else "DESC"}, $cfg:"
      val expect = scores(basic.orderBy(if (asc) col("score").asc else col("score").desc).limit(k))
      val got = scores(CompareSession.compare(df, spec, Some(TopK(k, asc)), cfg))
      assert(got.size == expect.size, s"$hint ${got.size} rows vs ${expect.size}")
      assert(got.zip(expect).forall { case (a, b) => TestUtil.close(a, b) }, s"$hint $got vs $expect")
    }
  }

  test("every Φp config returns the same pairs tied at the k-th score") {
    // C, D and E have identical trends: C–D, C–E and D–E score 0, and each of
    // A and B scores the same against all three.
    val rows = for {
      (city, ci) <- Seq("A", "B", "C", "D", "E").zipWithIndex
      week <- 1 to 12
    } yield {
      val i = math.min(ci, 2)
      Row(city, "P0", week, (i + 1) * week + 0.37 * i * i + 0.011 * week * week)
    }
    val df = edgeDf(rows)
    def pairs(k: TopK, cfg: PrunedTopK.Config): Set[(String, String)] =
      CompareSession.compare(df, symCity(), Some(k), cfg).collect()
        .map(r => (r.getAs[String]("city_1"), r.getAs[String]("city_2"))).toSet
    for (k <- 1 to 10; asc <- Seq(true, false)) {
      val byConfig = phiConfigs.map(cfg => cfg -> pairs(TopK(k, asc), cfg))
      assert(byConfig.map(_._2).distinct.size == 1,
        s"top $k ${if (asc) "ASC" else "DESC"}: ${byConfig.mkString("; ")}")
    }
  }

  test("edge: multi-attribute symmetric keys are ordered tuple-wise") {
    // Joined without a separator ("a","bc") and ("ab","c") are equal; joined
    // with U+0001, ("a\u0001","z") sorts before ("a","b").
    val keys = Seq("a" -> "bc", "ab" -> "c", "x" -> "y", "a\u0001" -> "z", "a" -> "b")
    val rows = for {
      ((city, product), ci) <- keys.zipWithIndex
      week <- 1 to 4
    } yield Row(city, product, week, (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week)
    val ts = TrendsetSpec(Seq(ConstraintTerm("city", None), ConstraintTerm("product", None)), Seq(weekSum))
    val spec = CompareSpec(ts, ts, Specs.scorer())
    checkEdge(edgeDf(rows), spec, 5 * 4 / 2)
    val pair = CompareSession.compare(edgeDf(rows), spec, None)
      .filter(col("product_1").isin("b", "z") && col("product_2").isin("b", "z"))
      .select("city_1", "product_1", "city_2", "product_2").collect().toSeq
    assert(pair == Seq(Row("a", "b", "a\u0001", "z")))
  }

  test("sides with the same fixed terms share one predicate and need no keep filter") {
    val df = CompareSession.compare(sales, Specs.ex1a(), None)
    df.collect()
    val exec = CompareTopKExec.in(df).get
    val conds = Plans.collect(exec.child) { case f: FilterExec => f.condition }
    assert(conds.size == 1 && conds.head.collect { case e: EqualTo => e }.size == 1, exec.treeString)
  }

  test("edge: a fixed and a free side share one scan") {
    checkEdge(edgeDf(edgeRows), cityVsB, 3)
    val df = CompareSession.compare(edgeDf(edgeRows), cityVsB, None)
    df.collect()
    val exec = CompareTopKExec.in(df).get
    assert(Plans.collect(exec.child) { case e: ExpandExec => e }.size == 1, exec.treeString)
  }

  test("edge: a group spread over partitions merges like Spark's final aggregate") {
    // Each (city, week) has one row in each of four partitions. (A, 2)'s row
    // in partition 0 and every row of (D, 4) are NULL; (B, 3) holds NaN and
    // +∞ in two partitions and (C, 1) −∞ in one: MAX(+∞, NaN) is NaN, and
    // MIN skips NaN. A, D and E score finite against each other.
    val parts = spark.range(64).select(col("id"), pmod(hash(col("id").cast("int")), lit(4)).as("p"))
      .collect().map(r => r.getInt(1) -> r.getLong(0).toInt).groupBy(_._1).map(_._2.head)
    assert(parts.size == 4)
    val rows = for {
      (city, ci) <- Seq("A", "B", "C", "D", "E").zipWithIndex
      week <- 1 to 4
      p <- 0 until 4
    } yield {
      val v: Any = (city, week, p) match {
        case ("A", 2, 0) | ("D", 4, _) => null
        case ("B", 3, 1) => Double.NaN
        case ("B", 3, 2) => Double.PositiveInfinity
        case ("C", 1, 2) => Double.NegativeInfinity
        case _ => (ci + 1) * week + 0.37 * ci * ci + 0.011 * week * week + 0.13 * p * (ci + 1)
      }
      Row(city, "P0", week, v, parts(p))
    }
    val schema = edgeSchema.add(StructField("part", IntegerType))
    val df = spark.createDataFrame(rows.asJava, schema).repartition(4, col("part"))
    assert(df.select(spark_partition_id(), col("part")).distinct().count() == 4)
    assert(df.select(spark_partition_id()).distinct().count() == 4)
    val ts = TrendsetSpec(Seq(ConstraintTerm("city", None)),
      AggKind.all.map(GroupingMeasure("week", _, "revenue")))
    checkEdge(df, CompareSpec(ts, ts, Specs.scorer()), 4 * 5 * 4 / 2)
  }

  test("operator resolves columns case-insensitively") {
    val upper = sales.toDF(sales.columns.map(_.toUpperCase).toIndexedSeq: _*)
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
