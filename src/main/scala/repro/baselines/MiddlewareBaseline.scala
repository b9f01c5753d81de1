package repro.baselines

import org.apache.spark.sql.{DataFrame, ReproBridge}
import repro.catalyst.TrendAggregation
import repro.core._
import repro.core.TrendModel.TrendBuilder

/** Middleware execution model simulation (§8's MIDDLEWARE baseline —
  * Zenvisage/Seedb style).
  *
  * The middleware issues one select-aggregate query per (grouping, measure)
  * (no sharing across queries), the database ships every aggregate row over
  * the network (the paper measured a 10 MB/s link and found transfer +
  * deserialization to be ~70% of total time), and the client compares trends
  * locally — with trendwise processing and segment-aggregate pruning, as the
  * paper grants this baseline.
  *
  * Each query is the operator's trend aggregate over one (g, m) of one
  * constraint template. The network is simulated by Java-serializing its rows
  * and pacing the transfer at `bandwidthMBps` (sleeping the residual time);
  * the client builds trends from the rows it received. Bandwidth is a
  * parameter; benches document the value used.
  */
object MiddlewareBaseline {

  final case class Result(pairs: Seq[ScoredPair], stats: PrunedTopK.PruneStats,
                          transferredBytes: Long, transferSeconds: Double)

  def topK(df: DataFrame, spec: CompareSpec, k: TopK,
           bandwidthMBps: Double = 50.0): Result = {
    // One aggregate query per (g, m) and template — issued separately, like a
    // visualization tool fetching each chart's data. The client decodes every
    // query's rows into one builder, so each grouping column has one dictionary.
    val trends = new TrendBuilder(spec, None)
    val totalBytes = TrendAggregation.members(spec).map { member =>
      val agg = new TrendAggregation(spec, Seq(member))
      val (rows, bytes) = UdfBaseline.roundTrip(ReproBridge.executeCollect(agg.over(df)))
      agg.decode(rows, trends)
      bytes
    }.sum
    val transferSeconds = totalBytes / (bandwidthMBps * 1e6)
    // Pace the simulated link (capped so accidental large payloads cannot
    // stall a bench run indefinitely).
    Thread.sleep(math.min(transferSeconds * 1000, 120000L).toLong)
    val (side1, side2) = trends.result()
    val res = PrunedTopK.search(spec, side1, side2, k)
    Result(res.pairs, res.stats, totalBytes, transferSeconds)
  }
}
