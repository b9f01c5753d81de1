package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Table statistics used by the merge cost model — the stand-in for the
  * engine's optimizer statistics (§4.2 computes sub-plan costs "as a function
  * of available database statistics (e.g., histograms, distinct value
  * estimates)").
  */
final case class Stats(rows: Long, distinct: Map[String, Long]) {
  def distinctOf(col: String): Long = distinct.getOrElse(col, math.max(rows, 1L))

  /** Estimated group count of a multi-column group-by under the standard
    * attribute-independence assumption, capped by the row count.
    */
  def groupCount(cols: Seq[String]): Long = {
    var est = 1.0
    cols.distinct.foreach(c => est = math.min(est * distinctOf(c), rows.toDouble.max(1.0)))
    math.max(1L, math.min(est.toLong, math.max(rows, 1L)))
  }
}

object Stats {
  /** Collect row count + approximate distinct counts for `cols` in one pass. */
  def collect(df: DataFrame, cols: Seq[String]): Stats = {
    val aggs = count(lit(1)).as("__rows") +:
      cols.distinct.map(c => approx_count_distinct(col(c)).as(c))
    val row = df.agg(aggs.head, aggs.tail: _*).collect()(0)
    val rows = row.getLong(0)
    Stats(rows, cols.distinct.zipWithIndex.map { case (c, i) => c -> row.getLong(i + 1) }.toMap)
  }
}

/** Greedy joint merging of group-by aggregates (§4.2, Algorithm 1).
  *
  * Sub-plans are merged at *sub-plan* granularity: the cost of a merged
  * sub-plan covers the shared scan, the merged group-by's output (which is the
  * partitioning input — the paper's observation that partitioning cost grows
  * with merge width), and the per-(g,m) re-aggregated trend relations. Two
  * sub-plans are merged per iteration while total cost decreases. Each
  * resulting group of (g, m)s shares one grouping-sets aggregate in
  * `BasicExec.runMerged`.
  */
object MergeOptimizer {

  /** Relative operator weights of the cost model. The absolute scale is
    * irrelevant (Algorithm 1 only compares costs); the ratios encode that a
    * scan touches every row once, the merged group-by output is partitioned
    * and re-aggregated (two passes), and each trend relation is joined once.
    */
  val ScanWeight      = 1.0
  val PartitionWeight = 2.0
  val TrendWeight     = 1.0

  /** Cost of one merged sub-plan covering `gmIdxs` of trendset `ts`. */
  def groupCost(ts: TrendsetSpec, gmIdxs: Seq[Int], stats: Stats): Double = {
    val groupings = gmIdxs.map(ts.gms(_).grouping).distinct
    val mergedOut = stats.groupCount(ts.freeAttrs ++ groupings)
    val trendOuts = gmIdxs.map(i => stats.groupCount(ts.freeAttrs :+ ts.gms(i).grouping))
    ScanWeight * stats.rows + PartitionWeight * mergedOut + TrendWeight * trendOuts.sum
  }

  def planCost(ts: TrendsetSpec, groups: Seq[Seq[Int]], stats: Stats): Double =
    groups.map(groupCost(ts, _, stats)).sum

  /** Algorithm 1: start from one sub-plan per (g, m); repeatedly merge the
    * pair of sub-plans with the largest cost decrease; stop when no merge
    * improves the total cost. Returns the partition of gm indices.
    */
  def optimize(ts: TrendsetSpec, stats: Stats): Seq[Seq[Int]] = {
    var groups: Vector[Seq[Int]] = ts.gms.indices.map(Seq(_)).toVector
    var improved = true
    while (improved && groups.size > 1) {
      improved = false
      var bestDelta = 0.0
      var bestPair  = (-1, -1)
      for (a <- groups.indices; b <- groups.indices if a < b) {
        val before = groupCost(ts, groups(a), stats) + groupCost(ts, groups(b), stats)
        val after  = groupCost(ts, groups(a) ++ groups(b), stats)
        val delta  = before - after
        if (delta > bestDelta) { bestDelta = delta; bestPair = (a, b) }
      }
      if (bestPair._1 >= 0) {
        val (a, b) = bestPair
        val merged = groups(a) ++ groups(b)
        groups = groups.zipWithIndex.collect { case (g, i) if i != a && i != b => g } :+ merged
        improved = true
      }
    }
    groups.map(_.sorted)
  }
}
