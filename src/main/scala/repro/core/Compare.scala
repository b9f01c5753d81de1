package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import repro.catalyst.{CompareSession, TrendCollector}

/** DataFrame-level entry points for COMPARE.
  *
  * Mirrors the logical-to-physical pipeline of §4–§5 so every ablation stage
  * is runnable on its own (used directly by the benchmarks):
  *
  *   - [[ExecStrategy.Basic]]       — §4.1 plan (the unmodified-engine baseline)
  *   - [[ExecStrategy.MergedOnly]]  — + shared grouping-sets aggregates of
  *                                    the (g, m)s Algorithm 1 merges, still
  *                                    trendset-granularity joins
  *   - [[ExecStrategy.Full]]        — the COMPARE operator: one shared scan
  *                                    builds every trend, then pairs are
  *                                    scored trendwise (§4.2 final plan)
  *
  * Top-k selection additionally applies the Φp pruning operator (§5).
  */
object Compare {

  sealed trait ExecStrategy
  object ExecStrategy {
    case object Basic      extends ExecStrategy
    case object MergedOnly extends ExecStrategy
    case object Full       extends ExecStrategy
  }

  /** Score all comparable trend pairs; result in the [[CompareOutput]] core
    * schema. `stats` feeds [[MergeOptimizer]] for the MergedOnly strategy.
    */
  def all(df: DataFrame, spec: CompareSpec,
          strategy: ExecStrategy = ExecStrategy.Full,
          stats: Option[Stats] = None): DataFrame = strategy match {
    case ExecStrategy.Basic      => BasicExec.run(df, spec)
    case ExecStrategy.MergedOnly => BasicExec.runMerged(df, spec, stats)
    case ExecStrategy.Full       => CompareSession.compare(df, spec, None)
  }

  /** Top-k pairs via the pruning operator Φp; returns the result (core
    * schema) plus pruning statistics.
    */
  def topK(df: DataFrame, spec: CompareSpec, k: TopK,
           cfg: PrunedTopK.Config = PrunedTopK.Config()): (DataFrame, PrunedTopK.PruneStats) = {
    val (t1, t2) = TrendCollector.collect(df, spec)
    val res = PrunedTopK.run(spec, t1, t2, k, cfg)
    (CompareOutput.toDf(df.sparkSession, spec, res.pairs), res.stats)
  }

  /** §3.2 composition: select the base-table tuples belonging to either trend
    * of each top-k pair, annotated with the pair's identity and score.
    */
  def topKJoin(df: DataFrame, spec: CompareSpec, k: TopK,
               cfg: PrunedTopK.Config = PrunedTopK.Config()): DataFrame = {
    val (top, _) = topK(df, spec, k, cfg)
    val matchSide1: Column = spec.t1.attrs
      .map(a => df(a).cast("string") === top(s"${a}_1")).reduce(_ && _)
    val matchSide2: Column = spec.t2.attrs
      .map(a => df(a).cast("string") === top(s"${a}_2")).reduce(_ && _)
    df.join(top, matchSide1 || matchSide2)
  }
}
