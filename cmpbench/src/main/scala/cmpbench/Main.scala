package cmpbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.{ReproBridge, SparkSession}
import org.apache.spark.sql.catalyst.expressions.In
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, Join, LogicalPlan}
import repro.catalyst.{CompareExtensions, CompareNode, PkFkHints, TrendCollector}
import repro.core.{PrunedTopK, TrendRow}

object Json {
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
}

final case class Metric(name: String, value: Double, unit: String, note: String = "")

/** The COMPARE benchmark: one JVM, Spark `local[cores]`, one client thread
  * issuing COMPARE SQL in a closed loop (the next query only after the
  * previous result is collected).
  *
  * Timed mode (`--trace 0`) reports the end-to-end metrics. Traced mode
  * (`--trace 1`) alternates an untraced query with a traced iteration that
  * calls each layer's public entry point separately, recording one span per
  * call, and reports the per-layer metrics.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        scale: Workloads.Scale, corruptReference: Boolean, cores: Int,
                        workDir: File, provenance: Seq[(String, String)])

  /** Fixed Spark settings, identical on both sides of any comparison. */
  val ShufflePartitions = 8
  val InputPartitions = 16 // spark.range's slices: several per core; the generated data depend on them
  val SetupReps = 6 // timed set-ups, after the timed queries
  /** Warm-up length in queries, not seconds: the JIT compiles by call counts,
    * so a slower side still starts timing at the same point of its warm-up.
    */
  val WarmUpQueries = 20
  /** No warm-up query starts after this: a guard that keeps a much slower
    * program within the run's time limit, not reached at today's speed.
    */
  val WarmUpCapSeconds = 30.0
  /** The closed loop attempts at least this many queries, however long they
    * take, so `latency_tail_s` is always the same percentile.
    */
  val MinQueries = 22
  /** `latency_tail_s`'s percentile: the highest with ten samples above it at `MinQueries`. */
  val TailQuantile: Double = (MinQueries - 10).toDouble / MinQueries

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      if (m.get("scale").contains("tiny")) Workloads.Tiny else Workloads.Full,
      m.get("corrupt-reference").contains("1"),
      m.get("cores").map(_.toInt).getOrElse(Runtime.getRuntime.availableProcessors),
      new File(m.getOrElse("work-dir", ".bench_build")).getAbsoluteFile,
      m.get("provenance").toSeq.flatMap(_.split(',')).map { kv =>
        val i = kv.indexOf('='); (kv.take(i), kv.drop(i + 1))
      })
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workloads.byName(a.workload, a.scale)
    progress("JVM up")
    val spark = session(a)
    val code =
      try { run(a, w, spark); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  def session(a: Args): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${a.cores}]")
      .appName("cmpbench")
      .withExtensions(new CompareExtensions)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.leafNodeDefaultParallelism", InputPartitions.toString)
      .config("spark.default.parallelism", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(a.workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(a.workDir, "warehouse").getPath)
      // Bounded listener state, so live heap does not grow with query count.
      .config("spark.sql.ui.retainedExecutions", "10")
      .config("spark.ui.retainedJobs", "10")
      .config("spark.ui.retainedStages", "10")
      .config("spark.ui.retainedTasks", "100")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    progress("session built")
    s
  }

  private def unload(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    spark.catalog.listTables().collect().filter(_.isTemporary).foreach(t => spark.catalog.dropTempView(t.name))
    PkFkHints.clear()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The `TailQuantile` percentile by nearest rank: (value, samples above).
    * With `MinQueries` samples or more, at least ten are above it.
    */
  def tail(xs: Seq[Double]): (Double, Int) = {
    val s = xs.sorted; val i = math.ceil(TailQuantile * s.size).toInt - 1
    (s(i), s.size - 1 - i)
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Progress to the log: where a run's wall-clock goes outside the timed phases. */
  private def progress(msg: String): Unit =
    Console.err.println(f"[cmpbench] ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%7.2f s  $msg")

  /** Counts queries and checks every answer against the reference. */
  final class Gate(ref: Seq[Answer], w: Workload) {
    var attempted = 0L
    var failed = 0L
    var firstError: Option[String] = None

    private def fail(msg: String): Unit = {
      failed += 1
      if (firstError.isEmpty) { firstError = Some(msg); Console.err.println(s"[cmpbench] wrong answer: $msg") }
    }

    /** Runs one query; returns its latency in seconds, until `collect()`
      * returned or the query threw.
      */
    def query(spark: SparkSession): Double = {
      attempted += 1
      val t0 = System.nanoTime()
      try {
        val rows = spark.sql(w.sql).collect()
        val t = secondsSince(t0)
        Reference.check(Reference.fromRows(rows.toSeq), ref, w.topK.k, w.topK.ascending).foreach(fail)
        t
      } catch { case NonFatal(e) => val t = secondsSince(t0); fail(s"query threw ${e.getClass.getName}: ${e.getMessage}"); t }
    }
  }

  /** Closed loop until `seconds` have passed and `MinQueries` queries were
    * attempted: (latency of every attempt, wall seconds).
    */
  private def closedLoop(spark: SparkSession, gate: Gate, seconds: Double): (Seq[Double], Double) = {
    val lat = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (lat.size < MinQueries || secondsSince(t0) < seconds) lat += gate.query(spark)
    (lat.toSeq, secondsSince(t0))
  }

  /** Issues `WarmUpQueries` queries, so every run starts timing after the
    * same JIT history, then more until latency stops falling (the median of
    * the last five is no more than 3% below the median of the five before).
    * No query starts after `WarmUpCapSeconds`. Returns the number of queries.
    */
  private def warmUp(spark: SparkSession, gate: Gate): Int = {
    val lat = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    def settled = lat.size >= WarmUpQueries &&
      median(lat.takeRight(5).toSeq) >= 0.97 * median(lat.slice(lat.size - 10, lat.size - 5).toSeq)
    while (lat.isEmpty || !(settled || secondsSince(t0) > WarmUpCapSeconds))
      lat += gate.query(spark)
    progress(s"warm-up latencies ${lat.map(x => f"$x%.3f").mkString(" ")}")
    lat.size
  }

  def run(a: Args, w: Workload, spark: SparkSession): Unit = {
    val calibration = Jvm.calibrationMs()
    progress(s"session up; calibration $calibration ms")

    // One untimed set-up serves the reference and every query.
    val tables = w.load(spark, a.seed)
    val refDir = new File(a.workDir, s"ref/${w.name}-seed${a.seed}")
    val ref0 = Reference.compute(w, tables, refDir)
    val ref = if (a.corruptReference) Reference.corrupt(ref0) else ref0
    deleteRecursively(refDir)
    progress(s"reference: ${ref0.size} rows")

    val gate = new Gate(ref, w)
    val warm = warmUp(spark, gate)
    progress(s"warmed up after $warm queries")

    val conf = Seq("spark.master", "spark.sql.shuffle.partitions", "spark.default.parallelism",
      "spark.sql.leafNodeDefaultParallelism",
      "spark.sql.adaptive.enabled", "spark.sql.autoBroadcastJoinThreshold")
      .map(k => k -> spark.conf.getOption(k).orElse(spark.sparkContext.getConf.getOption(k)).getOrElse("(default)"))
    val header = Seq(
      "workload" -> w.name, "seed" -> a.seed.toString, "mode" -> (if (a.trace) "traced" else "timed"),
      "scale" -> (if (a.scale == Workloads.Tiny) "tiny" else "full"),
      "cores" -> a.cores.toString, "max_heap_mb" -> f"${Runtime.getRuntime.maxMemory / 1048576.0}%.0f",
      "setup_reps" -> SetupReps.toString,
      "warmup_queries" -> warm.toString, "min_queries" -> MinQueries.toString,
      "cpu_calibration_ms" -> f"$calibration%.1f") ++ a.provenance ++ conf
    println(s"# cmpbench ${header.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    println(s"# input: ${w.shape}")
    println(s"# query: ${w.sql}")

    val ticks0 = Jvm.hostTicks()
    val (metrics, samples, setupTimes, extra) =
      if (a.trace) traced(a, w, spark, gate)
      else timed(a, w, spark, gate)
    val steal = Jvm.stealShare(ticks0, Jvm.hostTicks())

    progress("measured")
    val failedFrac = gate.failed.toDouble / gate.attempted
    val lines = metrics.map(m => f"metric ${m.name} = ${m.value}%.6g ${m.unit}${if (m.note.isEmpty) "" else "  (" + m.note + ")"}") :+
      s"metric failed_frac = $failedFrac 1  (${gate.failed} of ${gate.attempted} queries, warm-up included)"
    lines.foreach(println)
    extra.foreach(println)
    println(s"# host CPU steal while measuring: ${steal.fold("unknown")(x => f"${100 * x}%.1f%%")}")

    val metricsJson = metrics.map(m =>
      s"""${Json.str(m.name)}: {"value": ${Json.num(m.value)}, "unit": ${Json.str(m.unit)}}""").mkString("{", ", ", "}")
    val record = runRecord(a, w, if (a.trace) 1 else 0)
    write(record, Iterator.single(
      "{" + (header.map { case (k, v) => s"${Json.str(k)}: ${Json.str(v)}" } ++ Seq(
        s""""input": ${Json.str(w.shape)}""", s""""query": ${Json.str(w.sql)}""",
        s""""setup_s_samples": [${setupTimes.map(Json.num).mkString(", ")}]""",
        s""""host_steal_share": ${steal.fold("null")(Json.num)}""",
        s""""samples": ${samples.size}""", s""""latencies_s": [${samples.map(Json.num).mkString(", ")}]""",
        s""""attempted": ${gate.attempted}""", s""""failed": ${gate.failed}""",
        s""""metrics": $metricsJson"""
      )).mkString(", ") + "}"))

    println(s"""{"correct": ${gate.failed == 0}, "attempted": ${gate.attempted}, "failed": ${gate.failed}, "metrics": $metricsJson}""")
  }

  /** Closed loop, live heap, then the timed set-ups: (metrics, latencies, set-up times, notes). */
  private def timed(a: Args, w: Workload, spark: SparkSession,
                    gate: Gate): (Seq[Metric], Seq[Double], Seq[Double], Seq[String]) = {
    val (lat, wall) = closedLoop(spark, gate, a.seconds)
    val heap = Jvm.liveHeapMb()
    // The timed set-ups come last, when the JIT has compiled the engine paths
    // set-up shares with the queries, so they do not time its progress; and
    // not between warm-up and timed queries, whose latency a set-up disturbs.
    val setupTimes = (1 to SetupReps).map { _ =>
      unload(spark)
      System.gc() // every set-up starts from the same heap, without the previous input
      val t0 = System.nanoTime()
      w.load(spark, a.seed)
      secondsSince(t0)
    }
    progress(s"set up ${setupTimes.mkString(", ")} s")
    val (tv, above) = tail(lat)
    (Seq(
      Metric("latency_p50_s", median(lat), "s", s"n=${lat.size}"),
      Metric("latency_tail_s", tv, "s", f"p${100 * TailQuantile}%.1f, $above samples above, n=${lat.size}"),
      Metric("queries_per_s", lat.size / wall, "1/s", f"${lat.size} queries in $wall%.3f s"),
      Metric("setup_s", median(setupTimes), "s", s"median of $SetupReps"),
      Metric("driver_heap_mb", heap, "MB", "live heap after full GC"),
    ), lat, setupTimes, Nil)
  }

  /** R3's signature: a value-set filter on the constraint column, `a IN (…)`. */
  private def isPushedFilter(p: LogicalPlan): Boolean = p match {
    case Filter(cond, _) => cond.find(_.isInstanceOf[In]).isDefined
    case _ => false
  }

  /** Which of R1–R3 changed the COMPARE node between analysis and optimization. */
  private def rulesFired(analyzed: CompareNode, optimized: CompareNode): Seq[String] = {
    def count(p: LogicalPlan)(f: LogicalPlan => Boolean) = p.collect { case x if f(x) => x }.size
    Seq(
      "R1" -> (count(analyzed.child)(_.isInstanceOf[Join]) > count(optimized.child)(_.isInstanceOf[Join])),
      "R2" -> (count(optimized.child)(_.isInstanceOf[Aggregate]) > count(analyzed.child)(_.isInstanceOf[Aggregate])),
      "R3" -> (count(optimized.child)(isPushedFilter) > count(analyzed.child)(isPushedFilter)),
    ).collect { case (r, true) => r }
  }

  private def compareNode(p: LogicalPlan): CompareNode =
    p.collectFirst { case n: CompareNode => n }.getOrElse(throw new IllegalStateException("no COMPARE node in plan"))

  /** Alternating untraced and traced queries: (metrics, traced exec times, no set-up times, notes). */
  private def traced(a: Args, w: Workload, spark: SparkSession,
                     gate: Gate): (Seq[Metric], Seq[Double], Seq[Double], Seq[String]) = {
    val listener = new CountingListener
    val tracer = new Tracer
    final case class It(exec: Double, execAllocMb: Double, gcS: Double, jobs: Long,
                        plan: Double, rules: Seq[String],
                        trends: Double, trendCount: Int, points: Long, spark: SparkCounts,
                        phi: Double, phiAllocMb: Double, stats: PrunedTopK.PruneStats)
    val its = ArrayBuffer.empty[It]
    var lastTrends: (Seq[TrendRow], Seq[TrendRow]) = (Nil, Nil)
    var lastNode: CompareNode = null
    val t0 = System.nanoTime()
    val untraced = ArrayBuffer.empty[Double]
    while (its.isEmpty || secondsSince(t0) < a.seconds) {
      val i = its.size
      // One untraced query per iteration, with no listener registered, so
      // traced and untraced latencies are sampled at the same point of the
      // JIT warm-up.
      untraced += gate.query(spark)
      spark.sparkContext.addSparkListener(listener)
      tracer.span("iteration", i, -1) { root =>
        // exec: the SQL query as a whole, as the timed run issues it.
        val c0 = listener.snapshot(spark); val al0 = Jvm.allocatedBytes(); val gc0 = Jvm.gcMillis()
        val (_, execId) = tracer.span("exec", i, root)(_ => gate.query(spark))
        val al1 = Jvm.allocatedBytes(); val gc1 = Jvm.gcMillis(); val jobs = (listener.snapshot(spark) - c0).jobs
        tracer.annotate(execId, "driver_alloc_bytes" -> (al1 - al0).toDouble, "gc_ms" -> (gc1 - gc0).toDouble,
          "spark_jobs" -> jobs.toDouble)

        // plan: parser + R1–R3 + CompareStrategy.
        val (df, planId) = tracer.span("plan", i, root) { _ =>
          val df = spark.sql(w.sql); ReproBridge.executedPlan(df); df
        }
        val analyzed = compareNode(ReproBridge.analyzedPlan(df))
        val node = compareNode(ReproBridge.optimizedPlan(df))
        val rules = rulesFired(analyzed, node)
        tracer.annotate(planId, "rules_fired" -> rules.size.toDouble)

        // trends: the trend builder over the optimized child, so R1's rewrite is kept.
        val childDf = ReproBridge.ofRows(spark, node.child)
        val c1 = listener.snapshot(spark)
        val (tr, trendsId) = tracer.span("trends", i, root)(_ => TrendCollector.collect(childDf, node.spec))
        val sc = listener.snapshot(spark) - c1
        val points = (tr._1 ++ tr._2).map(_.data.size.toLong).sum
        tracer.annotate(trendsId, "trends" -> (tr._1.size + tr._2.size).toDouble, "points" -> points.toDouble,
          "shuffle_write_bytes" -> sc.shuffleWriteBytes.toDouble, "result_bytes" -> sc.resultBytes.toDouble,
          "executor_run_ms" -> sc.executorRunMs.toDouble, "tasks" -> sc.tasks.toDouble, "jobs" -> sc.jobs.toDouble)

        // phi: Φp over the collected trends.
        val pa0 = Jvm.allocatedBytes()
        val (res, phiId) = tracer.span("phi", i, root)(_ =>
          PrunedTopK.run(node.spec, tr._1, tr._2, node.topK.get, PrunedTopK.Config()))
        val phiAlloc = Jvm.allocatedBytes() - pa0
        val st = res.stats
        tracer.annotate(phiId, "alloc_bytes" -> phiAlloc.toDouble, "pairs" -> st.pairsTotal.toDouble,
          "pruned_initial" -> st.pairsPrunedInitial.toDouble, "pruned_search" -> st.pairsPrunedSearch.toDouble,
          "segments" -> st.segmentsProcessed.toDouble, "tuples_compared" -> st.tuplesCompared.toDouble)

        its += It(tracer.seconds(execId), (al1 - al0) / 1048576.0, (gc1 - gc0) / 1000.0, jobs,
          tracer.seconds(planId), rules, tracer.seconds(trendsId), tr._1.size + tr._2.size, points, sc,
          tracer.seconds(phiId), phiAlloc / 1048576.0, st)
        lastTrends = tr; lastNode = node
      }
      spark.sparkContext.removeSparkListener(listener)
    }
    val p50 = median(untraced.toSeq)

    val exhaustive = PrunedTopK.run(lastNode.spec, lastTrends._1, lastTrends._2, lastNode.topK.get,
      PrunedTopK.Config(usePruning = false)).stats.tuplesCompared
    val last = its.last
    val st = last.stats
    def med(f: It => Double) = median(its.map(f).toSeq)
    val (plan, trends, phi, exec) = (med(_.plan), med(_.trends), med(_.phi), med(_.exec))
    val n = s"median of ${its.size}"
    val metrics = Seq(
      Metric("plan.time_s", plan, "s", n),
      Metric("plan.rules_fired", last.rules.size, "count", last.rules.mkString(",")),
      Metric("trends.time_s", trends, "s", n),
      Metric("trends.count", last.trendCount, "count"),
      Metric("trends.points", last.points.toDouble, "count"),
      Metric("trends.shuffle_write_mb", last.spark.shuffleWriteBytes / 1048576.0, "MB"),
      Metric("trends.collect_mb", last.spark.resultBytes / 1048576.0, "MB"),
      Metric("trends.task_busy_s", med(_.spark.executorRunMs / 1000.0), "s", n),
      Metric("trends.spark_tasks", last.spark.tasks.toDouble, "count"),
      Metric("phi.time_s", phi, "s", n),
      Metric("phi.alloc_mb", med(_.phiAllocMb), "MB", n),
      Metric("phi.pairs", st.pairsTotal.toDouble, "count"),
      Metric("phi.pruned_initial", st.pairsPrunedInitial.toDouble, "count"),
      Metric("phi.pruned_search", st.pairsPrunedSearch.toDouble, "count"),
      Metric("phi.prune_ratio", if (st.pairsTotal == 0) 0.0 else st.pairsPruned.toDouble / st.pairsTotal, "ratio"),
      Metric("phi.segments", st.segmentsProcessed.toDouble, "count"),
      Metric("phi.tuples_compared", st.tuplesCompared.toDouble, "count"),
      Metric("phi.tuples_ratio", if (exhaustive == 0) 0.0 else st.tuplesCompared.toDouble / exhaustive, "ratio",
        s"of $exhaustive without pruning"),
      Metric("phi.summary_kb", st.summaryBytes / 1024.0, "KB"),
      Metric("exec.driver_alloc_mb", med(_.execAllocMb), "MB", n),
      Metric("exec.gc_s", med(_.gcS), "s", n),
      Metric("exec.spark_jobs", last.jobs.toDouble, "count"),
      Metric("exec.residual_s", p50 - plan - trends - phi, "s", "untraced latency_p50_s minus plan, trends, phi"),
      Metric("trace.overhead_s", exec - p50, "s", f"traced exec p50 $exec%.4f s minus untraced p50 $p50%.4f s (n=${untraced.size})"),
      Metric("trace.coverage", (plan + trends + phi) / p50, "ratio", "(plan + trends + phi) / untraced latency_p50_s"),
    )
    def repeats[A](f: It => A) = its.map(f).distinct.size == 1
    val extra = Seq(
      s"# counts repeat exactly over ${its.size} traced iterations: " +
        s"exec.spark_jobs=${repeats(_.jobs)} trends.shuffle_write_mb=${repeats(_.spark.shuffleWriteBytes)} " +
        s"phi.pairs=${repeats(_.stats.pairsTotal)} phi.tuples_compared=${repeats(_.stats.tuplesCompared)} " +
        s"trends.spark_tasks=${repeats(_.spark.tasks)}") ++ timedRunP50(a, w).map { case (p50t, source) =>
      f"# --trace 0 run of this seed (source $source): latency_p50_s $p50t%.4f s; traced exec p50 minus it: ${exec - p50t}%.4f s"
    }
    val spans = new File(a.workDir, s"traces/${w.name}-seed${a.seed}.jsonl")
    write(spans, tracer.toJsonLines)
    (metrics, its.map(_.exec).toSeq, Nil, extra :+ s"# spans written to $spans")
  }

  private def runRecord(a: Args, w: Workload, trace: Int): File =
    new File(a.workDir, s"runs/${w.name}-seed${a.seed}-trace$trace.json")

  /** `latency_p50_s` and source digest of the last `--trace 0` run of this
    * workload and seed, if its record is there.
    */
  private def timedRunP50(a: Args, w: Workload): Option[(Double, String)] = {
    val f = runRecord(a, w, 0)
    if (!f.isFile) None
    else {
      val src = scala.io.Source.fromFile(f, "UTF-8")
      val text = try src.mkString finally src.close()
      for {
        m <- "\"latency_p50_s\": \\{\"value\": ([0-9.eE+-]+)".r.findFirstMatchIn(text)
        source = "\"source\": \"([^\"]*)\"".r.findFirstMatchIn(text).fold("unknown")(_.group(1))
      } yield (m.group(1).toDouble, source)
    }
  }

  private def write(f: File, lines: Iterator[String]): Unit = {
    f.getParentFile.mkdirs()
    val pw = new PrintWriter(f, "UTF-8")
    try lines.foreach(pw.println) finally pw.close()
  }

  private def deleteRecursively(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteRecursively))
    f.delete()
  }
}
