package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.catalyst.TrendAggregation

/** Basic execution strategy (§4.1) — the plan relational engines generate for
  * hand-written comparative SQL (Figure 3):
  *
  *   1. one group-by aggregate per (grouping, measure) (no sharing),
  *   2. a join at *trendset* granularity on equal grouping values,
  *   3. per-pair aggregation with the scorer,
  *   4. UNION ALL across (grouping, measure) combinations.
  *
  * This doubles as the "unmodified engine" baseline of §8: it is exactly what
  * the engine does without the COMPARE optimizations.
  */
object BasicExec {

  /** Full pair scoring in the core output schema of [[CompareOutput]]. */
  def run(df: DataFrame, spec: CompareSpec): DataFrame =
    scorePairs(df, spec,
      i => trendRel(df, spec.t1, spec.t1.gms(i), side = 1),
      j => trendRel(df, spec.t2, spec.t2.gms(j), side = 2))

  /** Step 1: the group-by aggregate of side `side`'s trend relation for one
    * (g, m), one row per (trend, grouping value). Output columns:
    * `<attr>_<side>` for every constraint attribute (fixed attributes surface
    * their constant, as `R1 = 'Asia'` in Table 1), `__g<side>` (grouping
    * value) and `__v<side>` (aggregated measure). Keys are canonicalized to
    * strings so joins and oracle comparisons are type-stable.
    */
  private def trendRel(df: DataFrame, ts: TrendsetSpec, gm: GroupingMeasure, side: Int): DataFrame = {
    val base = ts.fixedTerms.foldLeft(df) { case (d, (a, v)) => d.filter(col(a).cast("string") === lit(v)) }
    val keys = ts.freeAttrs.map(a => col(a).cast("string").as(s"${a}_$side")) :+
      col(gm.grouping).cast("string").as(s"__g$side")
    val grouped = base.groupBy(keys: _*)
      .agg(call_function(gm.agg.sql, col(gm.measure).cast("double")).as(s"__v$side"))
    ts.fixedTerms.foldLeft(grouped) { case (d, (a, v)) => d.withColumn(s"${a}_$side", lit(v)) }
  }

  /** The same plan over shared (merged) aggregates, still with
    * trendset-granularity joins — isolates the merging optimization for the
    * §8.1 ablation. Algorithm 1 ([[MergeOptimizer]]) picks which (g, m)s of a
    * trendset share one grouping-sets aggregate ([[TrendAggregation]]). Each
    * aggregate is materialized once for the query, so the optimizer cannot
    * push a member's filter into it and undo the sharing; every member reads
    * its trend relation out of it. Symmetric specs aggregate one side for both.
    */
  def runMerged(df: DataFrame, spec: CompareSpec, stats: Option[Stats]): DataFrame = {
    val shared = (for {
      ts <- Seq(spec.t1, spec.t2).distinct
      group <- if (ts.gms.size == 1) Seq(Seq(0))
               else MergeOptimizer.optimize(ts,
                 stats.getOrElse(Stats.collect(df, ts.freeAttrs ++ ts.gms.map(_.grouping))))
      agg = new TrendAggregation(spec, group.map(i => ts -> ts.gms(i)))
      out = agg.over(df).localCheckpoint()
      i <- group
    } yield (ts, ts.gms(i)) -> (agg, out)).toMap
    def rel(ts: TrendsetSpec, side: Int)(i: Int): DataFrame = {
      val (agg, out) = shared((ts, ts.gms(i)))
      agg.trendRel(out, ts, ts.gms(i), side)
    }
    scorePairs(df, spec, rel(spec.t1, 1), rel(spec.t2, 2))
  }

  /** Steps 2–4 over each side's per-(g, m) trend relations (columns as in
    * [[trendRel]]).
    */
  private def scorePairs(df: DataFrame, spec: CompareSpec,
                         rel1: Int => DataFrame, rel2: Int => DataFrame): DataFrame = {
    val perGm = spec.comparableGmPairs.map { case (i, j) =>
      val gm1 = spec.t1.gms(i); val gm2 = spec.t2.gms(j)
      val left = rel1(i); val right = rel2(j)
      val joined = left.join(right, left("__g1") === right("__g2") && PairRule.column(spec, left, right))
      val cCols = (CompareOutput.c1Cols(spec) ++ CompareOutput.c2Cols(spec)).map(col)
      val diff = pow(abs(col("__v1") - col("__v2")), spec.scorer.p)
      joined
        .groupBy(cCols: _*)
        .agg(call_function(spec.scorer.agg.sql, diff).as("score"))
        .withColumn("grouping", lit(gm1.grouping))
        .withColumn("measure_1", lit(gm1.measureLabel))
        .withColumn("measure_2", lit(gm2.measureLabel))
        .select(CompareOutput.columns(spec).map(col): _*)
    }
    if (perGm.isEmpty) emptyResult(df, spec) else perGm.reduce(_.unionAll(_))
  }

  /** Zero comparable (g, m) pairs (e.g. a cross-measure spec with a single
    * (g, m)): an empty relation in the COMPARE output schema.
    */
  private def emptyResult(df: DataFrame, spec: CompareSpec): DataFrame =
    df.sparkSession.createDataFrame(
      df.sparkSession.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      CompareOutput.schema(spec))
}
