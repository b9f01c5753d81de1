package cmpbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.CmpbenchListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Engine-side counters, summed by a `SparkListener` the traced run
  * registers (the timed run registers none).
  */
final case class SparkCounts(jobs: Long, tasks: Long, shuffleWriteBytes: Long,
                             resultBytes: Long, executorRunMs: Long) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, tasks - o.tasks,
    shuffleWriteBytes - o.shuffleWriteBytes, resultBytes - o.resultBytes, executorRunMs - o.executorRunMs)
}

final class CountingListener extends SparkListener {
  private val jobs, tasks, shuffle, result, runMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffle.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      result.addAndGet(m.resultSize)
      runMs.addAndGet(m.executorRunTime)
    }
  }

  /** Counts so far, after every pending event has been delivered. */
  def snapshot(spark: SparkSession): SparkCounts = {
    CmpbenchListenerBus.drain(spark.sparkContext)
    SparkCounts(jobs.get, tasks.get, shuffle.get, result.get, runMs.get)
  }
}

/** JVM and host probes: thread allocation, GC time, live heap, CPU speed and steal. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Milliseconds for a fixed single-threaded integer loop, median of three.
    * Not a metric: recorded with each run so that a slow host shows.
    */
  def calibrationMs(): Double = {
    val ts = (1 to 3).map { _ =>
      val t0 = System.nanoTime()
      var x = 88172645463325252L
      var i = 0
      while (i < 50000000) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; i += 1 }
      if (x == 42) println() // keeps the loop from being removed
      (System.nanoTime() - t0) / 1e6
    }
    ts.sorted.apply(1)
  }

  /** The host's cumulative CPU ticks (all, stolen by the hypervisor), from
    * /proc/stat where it exists. Stolen time is load the benchmark cannot see
    * otherwise; it is recorded with each run.
    */
  def hostTicks(): Option[(Long, Long)] =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try {
        val xs = src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong)
        Some((xs.sum, xs.lift(7).getOrElse(0L)))
      } finally src.close()
    } catch { case scala.util.control.NonFatal(_) => None }

  def stealShare(from: Option[(Long, Long)], to: Option[(Long, Long)]): Option[Double] =
    for ((all0, st0) <- from; (all1, st1) <- to if all1 > all0) yield (st1 - st0).toDouble / (all1 - all0)

  /** Live heap after full collections, in MB. */
  def liveHeapMb(): Double = {
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(100) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** One timed call into a layer. Spans of one traced iteration share
  * `iteration`; `parent` is the enclosing span's id, or -1.
  */
final case class Span(id: Int, parent: Int, iteration: Int, name: String,
                      startNs: Long, endNs: Long, attrs: Seq[(String, Double)]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Holds spans in memory; written out once, when the run ends. */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]

  /** Times `f` as a span under `parent` (-1 for a root); `f` receives the
    * span's id, so spans it opens can name it as their parent.
    */
  def span[A](name: String, iteration: Int, parent: Int)(f: Int => A): (A, Int) = {
    val id = spans.size
    spans += Span(id, parent, iteration, name, System.nanoTime(), 0L, Nil)
    val a = f(id)
    spans(id) = spans(id).copy(endNs = System.nanoTime())
    (a, id)
  }

  /** Attaches the counts measured at a span's boundary. */
  def annotate(id: Int, attrs: (String, Double)*): Unit =
    spans(id) = spans(id).copy(attrs = spans(id).attrs ++ attrs)

  def seconds(id: Int): Double = spans(id).seconds

  def toJsonLines: Iterator[String] = spans.iterator.map { s =>
    val attrs = s.attrs.map { case (k, v) => s"${Json.str(k)}: ${Json.num(v)}" }.mkString(", ")
    s"""{"id": ${s.id}, "parent": ${s.parent}, "iteration": ${s.iteration}, "name": ${Json.str(s.name)}, """ +
      s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "attrs": {$attrs}}"""
  }
}
