package repro.bench

import org.apache.spark.sql.{DataFrame, ReproBridge, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.catalyst._
import repro.core._
import repro.flight.FlightData
import repro.tpcds.WebSalesData
import repro.workload.Workloads
import repro.workload.Workloads.Query

/** The evaluation experiments of §8, one per reported artifact (see
  * DESIGN.md §4 for the artifact ↔ experiment index). Each experiment prints
  * a markdown table with the paper's reported numbers alongside ours and
  * returns structured rows so the bench suites can assert the *shape*
  * (who wins, roughly by how much, where crossovers fall).
  */
object Experiments {
  import BenchHarness._

  // Bench-scale datasets (Table 5 substitution; laptop scale).
  // Scan-heavy regime (several raw rows per aggregated cell), mirroring the
  // paper's 74M-row table where shared scans are the dominant saving.
  val FlightAirports = 160
  val FlightDays = 366
  val FlightRowsPerCell = 12
  /** Approximate bytes of the Flight-lite input (60 per raw row). */
  val FlightInputBytes: Long = FlightAirports.toLong * FlightDays * FlightRowsPerCell * 60
  val TpcdsRows = 1500000L
  val TpcdsPages = 256
  val TpcdsItems = 200
  val TpcdsDays = 120

  def flightData(spark: SparkSession): DataFrame =
    FlightData.flights(spark, FlightAirports, FlightDays, FlightRowsPerCell)
  def tpcdsData(spark: SparkSession): DataFrame =
    WebSalesData.webSales(spark, TpcdsRows, TpcdsPages, TpcdsItems, TpcdsDays)

  private def materialize(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }

  /** Blocking unpersist + GC: leftover cached blocks and garbage from one
    * experiment must not pollute the next one's timings.
    */
  private def release(dfs: DataFrame*): Unit = {
    dfs.foreach(_.unpersist(blocking = true))
    System.gc()
  }

  // ------------------------------------------------------------- Table 5

  final case class DatasetRow(name: String, rows: Long, trends: Long, columns: Int)

  def datasets(spark: SparkSession): Seq[DatasetRow] = {
    val f = materialize(flightData(spark)); val t = materialize(tpcdsData(spark))
    val rows = Seq(
      DatasetRow("Flight-lite", f.count(), FlightAirports.toLong, f.columns.length),
      DatasetRow("websales-lite", t.count(), TpcdsPages.toLong, t.columns.length))
    table("Table 5 (repro): datasets",
      Seq("dataset", "rows", "trend entities", "columns", "paper rows"),
      rows.zip(Seq("74M (8 GB)", "720M (20 GB)")).map { case (r, paper) =>
        Seq(r.name, r.rows.toString, r.trends.toString, r.columns.toString, paper)
      },
      Seq("Paper: Flight 74M rows / 384 airports; TPC-DS SF100 websales 720M rows / 2040 webpages.",
        "Repro runs laptop-scale synthetic data with the same shape (DESIGN.md §1)."))
    release(f, t)
    rows
  }

  // ------------------------------------------------------------- Fig. 9a

  final case class E2ERow(query: String, basic: Double, compare: Double,
                          udf: Double, middleware: Double) {
    def compareSpeedup: Double = basic / compare
  }

  /** End-to-end latency of the four approaches on Q1–Q4 (Figure 9a). */
  def endToEnd(spark: SparkSession, dataset: String): Seq[E2ERow] = {
    val (df, queries) = dataset match {
      case "flight" => (materialize(flightData(spark)), Workloads.flightQueries)
      case "tpcds"  => (materialize(tpcdsData(spark)), Workloads.tpcdsQueries)
    }
    val rows = queries.map { q =>
      System.gc() // don't charge this query for the previous one's garbage
      val c = warmBest2(compare(df, q))
      val b = warmBest2(basic(df, q))
      val u = warmBest2(udf(df, q))
      val m = warmBest2(middleware(df, q))
      E2ERow(q.id, b, c, u, m)
    }
    val paperSpeedups = dataset match {
      // Figure 9a, approximate (bars read relative to unmodified SQL Server).
      case "flight" => Seq("1.26×", "~4×", "~2×", "~4×")
      case "tpcds"  => Seq("1.36×", "~4×", "~2×", "~4×")
    }
    table(s"Fig. 9a (repro): end-to-end latency, $dataset",
      Seq("query", "SQL-basic (s)", "COMPARE (s)", "UDF (s)", "MIDDLEWARE (s)",
        "COMPARE speedup", "paper COMPARE speedup"),
      rows.zip(paperSpeedups).map { case (r, p) =>
        Seq(r.query, fmtSec(r.basic), fmtSec(r.compare), fmtSec(r.udf), fmtSec(r.middleware),
          fmtX(r.compareSpeedup), p)
      },
      Seq("UDF marshals both sides' trend lists + compares single-threaded; MIDDLEWARE ships " +
        s"aggregates at ${MiddlewareBandwidthMBps.toInt} MB/s (paper's link) and compares client-side."))
    release(df)
    rows
  }

  // ------------------------------------------------------------- Fig. 9b

  final case class AblationRow(query: String, basic: Double, merged: Double,
                               trendwise: Double, pruned: Double, early: Double)

  /** Ablation: each §4/§5 optimization enabled left to right (Figure 9b). */
  def ablation(spark: SparkSession): Seq[AblationRow] = {
    val df = materialize(flightData(spark))
    // Optimizer statistics computed once, like an engine's catalog stats —
    // Algorithm 1 consumes them, their collection is not part of the query.
    val stats = Some(Stats.collect(df, "airport" +: FlightData.AllGroupings))
    runCompare(df, Workloads.flightQ1) // warm
    val rows = Workloads.flightQueries.map { q =>
      AblationRow(q.id,
        runBasic(df, q),
        runMergedOnly(df, q, stats),
        runCompare(df, q, PrunedTopK.Config(usePruning = false)),
        runCompare(df, q, PrunedTopK.Config(useEarlyTermination = false)),
        runCompare(df, q))
    }
    table("Fig. 9b (repro): ablation, flight",
      Seq("query", "basic (s)", "+merged aggs (s)", "+trendwise (s)",
        "+segment pruning (s)", "+early termination (s)"),
      rows.map(r => Seq(r.query, fmtSec(r.basic), fmtSec(r.merged), fmtSec(r.trendwise),
        fmtSec(r.pruned), fmtSec(r.early))),
      Seq("Paper: sharing ≈30% on Q3/Q4 (none available on Q1/Q2), trendwise ≈25%, " +
        "segment-aggregates + early termination a further 20–25%."))
    release(df)
    rows
  }

  // ------------------------------------------------------------- Fig. 10

  final case class SweepRow(x: Long, basic: Option[Double], compare: Double)

  /** Q2 on `flights(airports, days, 2)`: the operator's latency, and the
    * basic plan's up to `basicUpTo` airports. The basic plan's trendset join
    * grows superlinearly, so it is skipped past that (the paper's point, made
    * by omission).
    */
  private def q2Point(spark: SparkSession, airports: Int, days: Int, basicUpTo: Int): SweepRow = {
    val df = materialize(FlightData.flights(spark, airports, days, 2))
    val q = Workloads.flightQ2
    val c = runCompare(df, q)
    val b = if (airports <= basicUpTo) Some(runBasic(df, q)) else None
    release(df)
    SweepRow(airports.toLong, b, c)
  }

  /** Latency vs number of trends (Q2 shape), Figure 10 left. */
  def sensitivityTrends(spark: SparkSession): Seq[SweepRow] = {
    val rows = Seq(16, 64, 256, 1024).map(q2Point(spark, _, FlightDays, basicUpTo = 256))
    table("Fig. 10 (repro): latency vs number of trends (Q2, flight)",
      Seq("airports (trends)", "SQL-basic (s)", "COMPARE (s)"),
      rows.map(r => Seq(r.x.toString, r.basic.map(fmtSec).getOrElse("— (join too large)"),
        fmtSec(r.compare))),
      Seq("Paper: latency grows for all approaches; growth much steeper without " +
        "trendwise pruning/partitioning."))
    rows
  }

  /** Latency vs number of (grouping, measure) (Q3 shape), Figure 10 middle. */
  def sensitivityGms(spark: SparkSession): Seq[SweepRow] = {
    val df = materialize(flightData(spark))
    val rows = Seq(1, 5, 10, 20).map { n =>
      val gms = FlightData.gmsN(n)
      // Two fixed airports compared over n (g, m) each (example-1b shape) —
      // one comparison per (g, m), so the sweep isolates aggregate sharing.
      val spec = CompareSpec(
        TrendsetSpec(Seq(ConstraintTerm("airport", Some("A000"))), gms),
        TrendsetSpec(Seq(ConstraintTerm("airport", Some("A001"))), gms),
        Scorer(AggKind.Sum, 2))
      val q = Query(s"Q3-gms$n", spec, Workloads.DefaultK)
      SweepRow(n.toLong, Some(runBasic(df, q)), runCompare(df, q))
    }
    table("Fig. 10 (repro): latency vs number of (grouping, measure) (Q3, flight)",
      Seq("(g, m) count", "SQL-basic (s)", "COMPARE (s)"),
      rows.map(r => Seq(r.x.toString, fmtSec(r.basic.get), fmtSec(r.compare))),
      Seq("Paper: SQL latency grows much faster than COMPARE's (no aggregate sharing)."))
    release(df)
    rows
  }

  /** Number of trends ↑ with total aggregated size fixed, Figure 10 right. */
  def sensitivityFixedSize(spark: SparkSession): Seq[SweepRow] = {
    val configs = Seq((137, 366), (548, 92), (2192, 23)) // airports × days ≈ 50k
    val rows = configs.map { case (a, d) => q2Point(spark, a, d, basicUpTo = 600) }
    table("Fig. 10 (repro): trends ↑, total aggregated size fixed (Q2, flight)",
      Seq("airports (trend size)", "SQL-basic (s)", "COMPARE (s)"),
      rows.zip(configs).map { case (r, (_, d)) =>
        Seq(s"${r.x} ($d days)", r.basic.map(fmtSec).getOrElse("— (join too large)"),
          fmtSec(r.compare))
      },
      Seq("Paper: COMPARE latency first drops (more parallel partitions), then the " +
        "per-partition benefit flattens as partitions become tiny."))
    rows
  }

  // ------------------------------------------------------------- Fig. 11/12

  final case class SegRow(segments: Int, seconds: Double, tuplesCompared: Long,
                          pairsPruned: Long, sturges: Boolean)

  /** Latency vs number of segment aggregates (Figure 11) and the equivalent
    * tuples-per-update view (Figure 12); Q2 over flight, run through the
    * operator with the segment count set, reading Φp's own metrics. Its
    * time is the trend builder's and Φp's (`trendTime + phiTime`): the
    * segment summaries, which grow with the count, are built with the trends.
    */
  def segmentSweep(spark: SparkSession): Seq[SegRow] = {
    val df = materialize(flightData(spark))
    val q = Workloads.flightQ2
    val sturgesL = TrendModel.sturges(FlightDays)
    def phi(cfg: PrunedTopK.Config): Map[String, Long] = {
      val compared = CompareSession.compare(df, q.spec, Some(q.topK), cfg)
      compared.collect()
      CompareTopKExec.in(compared).get.metrics.map { case (name, m) => name -> m.value }
    }
    def time(m: Map[String, Long]): Long = m("trendTime") + m("phiTime")
    val rows = (Seq(1, 2, 4, sturgesL, 16, 32, 64).distinct.sorted).map { l =>
      val cfg = PrunedTopK.Config(numSegments = Some(l))
      phi(cfg) // warm
      val runs = Seq.fill(3)(phi(cfg)).sortBy(time)
      val m = runs(1)
      SegRow(l, time(m) / 1e3, m("tuplesCompared"),
        m("pairsPrunedInitial") + m("pairsPrunedSearch"), l == sturgesL)
    }
    table("Fig. 11 (repro): varying number of segment aggregates (Q2, flight)",
      Seq("segments", "trends + Φp time (s)", "tuples compared", "pairs pruned", "Sturges choice"),
      rows.map(r => Seq(r.segments.toString, f"${r.seconds}%.3f", r.tuplesCompared.toString,
        r.pairsPruned.toString, if (r.sturges) "←" else "")),
      Seq("Paper: latency dips then rises again as segment comparisons outgrow pruning " +
        "gains; the Sturges choice ⌊1+log2(n)⌋ sits near the minimum."))
    table("Fig. 12 (repro): tuples compared per bound update (same sweep, inverted knob)",
      Seq("tuples/update (segment size)", "trends + Φp time (s)", "auto choice"),
      rows.reverse.map { r =>
        val segSize = math.ceil(FlightDays.toDouble / r.segments).toInt
        Seq(segSize.toString, f"${r.seconds}%.3f", if (r.sturges) "←" else "")
      },
      Seq("Paper: too few tuples per update → PQ thrash; too many → wasted work on " +
        "low-utility pairs; the automatic n/⌊1+log2(n)⌋ sits near the optimum."))
    release(df)
    rows
  }

  // ------------------------------------------------------------- Fig. 13

  final case class RuleRow(name: String, without: Double, withRule: Double) {
    def gainPct: Double = (without - withRule) / without * 100
  }

  /** R1 (push Φ below PK-FK join) and R2 (push Υ/dedup below Φ), Figure 13.
    * "Without rule" runs with the rule named in Spark's
    * `spark.sql.optimizer.excludedRules`; "with rule" on the session's own
    * optimizer.
    */
  def transformationRules(spark: SparkSession): Seq[RuleRow] = {
    PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
    val fact = materialize(tpcdsData(spark))
    val dim = materialize(WebSalesData.webPage(spark, TpcdsPages))
    val joined = fact.join(dim, fact("ws_web_page_sk") === dim("wp_web_page_sk"))

    def dimSpec(fixed: Boolean): CompareSpec = {
      val gms = WebSalesData.gms5
      val c = if (fixed) Seq(ConstraintTerm("wp_web_page_sk", Some("1")))
              else Seq(ConstraintTerm("wp_web_page_sk", None))
      CompareSpec(TrendsetSpec(c, gms), TrendsetSpec(c, gms), Scorer(AggKind.Sum, 2))
    }

    // Best of three: identical plans vary several-fold run to run in a
    // long-lived JVM (GC), and the rule gains at stake are tens of percent.
    def timeNode(node: CompareNode): Double =
      (1 to 3).map(_ => time(ReproBridge.ofRows(spark, node).collect())._2).min

    /** Times `node` without and with `rule`; `fired` must tell the two
      * optimized plans apart.
      */
    def ruleRow(name: String, rule: Rule[LogicalPlan], node: CompareNode)
               (fired: LogicalPlan => Boolean): RuleRow = {
      def optimized = ReproBridge.optimizedPlan(ReproBridge.ofRows(spark, node))
      val excluded = "spark.sql.optimizer.excludedRules"
      val original = spark.conf.getOption(excluded)
      spark.conf.set(excluded, rule.ruleName)
      val (without, plain) =
        try (timeNode(node), optimized)
        finally original.fold(spark.conf.unset(excluded))(spark.conf.set(excluded, _))
      require(!fired(plain) && fired(optimized), s"$name: ${rule.ruleName} must fire only when not excluded")
      RuleRow(name, without, timeNode(node))
    }

    val r1Rows = Seq("Q3 (fixed page)" -> dimSpec(fixed = true),
      "Q4 (all pages)" -> dimSpec(fixed = false)).map { case (name, spec) =>
      val node = CompareNode(spec, Some(Workloads.DefaultK), ReproBridge.analyzedPlan(joined))
      ruleRow(s"R1 Φ below ⋈: $name", PushCompareBelowJoin, node)(!_.exists(_.isInstanceOf[Join]))
    }

    val flight = materialize(FlightData.flights(spark, FlightAirports, FlightDays, 8))
    val maxGm = Seq(GroupingMeasure("day", AggKind.Max, "arrdelay"))
    val r2Rows = Seq(
      "Q1 (one vs all)" -> CompareSpec(
        TrendsetSpec(Seq(ConstraintTerm("airport", Some("A000"))), maxGm),
        TrendsetSpec(Seq(ConstraintTerm("airport", None)), maxGm), Scorer(AggKind.Max, 2)),
      "Q2 (all vs all)" -> CompareSpec(
        TrendsetSpec(Seq(ConstraintTerm("airport", None)), maxGm),
        TrendsetSpec(Seq(ConstraintTerm("airport", None)), maxGm), Scorer(AggKind.Max, 2))
    ).map { case (name, spec) =>
      val node = CompareNode(spec, Some(Workloads.DefaultK), ReproBridge.analyzedPlan(flight))
      ruleRow(s"R2 Υ below Φ: $name", DedupBelowCompare, node)(_.exists(_.isInstanceOf[Aggregate]))
    }

    val rows = r1Rows ++ r2Rows
    table("Fig. 13 (repro): pushdown transformation rules",
      Seq("rule / query", "without rule (s)", "with rule (s)", "gain", "paper gain"),
      rows.zip(Seq("18%", "32%", "14%", "19%")).map { case (r, p) =>
        Seq(r.name, fmtSec(r.without), fmtSec(r.withRule), f"${r.gainPct}%.0f%%", p)
      })
    release(fact, dim, flight)
    rows
  }

  // ------------------------------------------------------------- Fig. 15

  final case class DopRow(partitions: Int, basic: Double, compare: Double)

  /** Latency vs parallelism (shuffle width sweep — the repro analogue of the
    * paper's DOP sweep), Figure 15a; plus Φp memory overhead, Figure 15b.
    */
  def parallelism(spark: SparkSession): (Seq[DopRow], Seq[(String, Long)]) = {
    val df = materialize(flightData(spark))
    val q = Workloads.flightQ2
    val original = spark.conf.get("spark.sql.shuffle.partitions")
    val dopRows =
      try Seq(1, 4, 16, 64).map { p =>
        spark.conf.set("spark.sql.shuffle.partitions", p.toString)
        DopRow(p, runBasic(df, q), runCompare(df, q, PrunedTopK.Config(usePruning = false)))
      } finally spark.conf.set("spark.sql.shuffle.partitions", original)
    table("Fig. 15a (repro): latency vs parallelism (shuffle partitions, Q2 flight)",
      Seq("partitions", "SQL-basic (s)", "COMPARE trendwise (s)"),
      dopRows.map(r => Seq(r.partitions.toString, fmtSec(r.basic), fmtSec(r.compare))),
      Seq("Paper: both benefit from DOP up to a point, COMPARE stays 2–3× faster at " +
        "every DOP."))

    val memRows = Workloads.flightQueries.map { qq =>
      val compared = CompareSession.compare(df, qq.spec, Some(qq.topK))
      compared.collect()
      qq.id -> CompareTopKExec.in(compared).fold(0L)(_.metrics("summarySize").value)
    }
    table("Fig. 15b (repro): Φp summary-structure memory overhead",
      Seq("query", "summary bytes", "input bytes (approx)", "overhead"),
      memRows.map { case (id, b) =>
        Seq(id, b.toString, FlightInputBytes.toString, f"${b.toDouble / FlightInputBytes * 100}%.3f%%")
      },
      Seq("Paper: < 13% committed-memory overhead; the summary structures themselves " +
        "are O(p·log(n/p)) — tiny relative to the data."))
    release(df)
    (dopRows, memRows)
  }
}
