package repro.baselines

import java.nio.charset.StandardCharsets

import org.apache.spark.sql.DataFrame
import repro.core._

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
  * The network is simulated by CSV-serializing the rows and pacing the
  * transfer at `bandwidthMBps` (sleeping the residual time). Bandwidth is a
  * parameter; benches document the value used.
  */
object MiddlewareBaseline {

  final case class Result(pairs: Seq[ScoredPair], stats: PrunedTopK.PruneStats,
                          transferredBytes: Long, transferSeconds: Double)

  def topK(df: DataFrame, spec: CompareSpec, k: TopK,
           bandwidthMBps: Double = 50.0): Result = {
    // One aggregate query per (g, m) per side — issued separately, like a
    // visualization tool fetching each chart's data.
    def fetchSide(ts: TrendsetSpec, side: Int, gmIdxs: Seq[Int]): (Seq[TrendRow], Long) = {
      var bytes = 0L
      val rows = gmIdxs.flatMap { i =>
        val rel = Relations.trendRel(df, ts, ts.gms(i), side)
        val collected = rel.collect() // the per-query result set
        val csv = collected.map(_.toSeq.mkString(",")).mkString("\n")
        val payload = csv.getBytes(StandardCharsets.UTF_8)
        bytes += payload.length
        // Client-side deserialization: parse the CSV back into trends.
        val header = rel.columns
        val gIdx = header.indexOf(s"__g$side"); val vIdx = header.indexOf(s"__v$side")
        val cIdxs = ts.attrs.map(a => header.indexOf(s"${a}_$side"))
        val parsed = new String(payload, StandardCharsets.UTF_8)
          .split("\n").filter(_.nonEmpty)
          .map(_.split(",", -1))
        parsed
          .filter(f => f(gIdx) != "null" && f(vIdx) != "null")
          .groupBy(f => cIdxs.map(f(_)).toList)
          .map { case (c, fs) =>
            TrendRow(i, c, fs.map(f => f(gIdx) -> f(vIdx).toDouble).toMap)
          }
      }
      (rows, bytes)
    }

    val gms1 = spec.comparableGmPairs.map(_._1).distinct
    val gms2 = spec.comparableGmPairs.map(_._2).distinct
    val (t1, b1) = fetchSide(spec.t1, 1, gms1)
    val (t2, b2) = fetchSide(spec.t2, 2, gms2)
    val totalBytes = b1 + b2
    val transferSeconds = totalBytes / (bandwidthMBps * 1e6)
    // Pace the simulated link (capped so accidental large payloads cannot
    // stall a bench run indefinitely).
    Thread.sleep(math.min(transferSeconds * 1000, 120000L).toLong)
    val res = PrunedTopK.run(spec, t1, t2, k)
    Result(res.pairs, res.stats, totalBytes, transferSeconds)
  }
}
