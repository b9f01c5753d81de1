package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Shared DataFrame builders for the execution strategies of §4.
  *
  * A *trend relation* for a trendset side and one (grouping, measure) is the
  * output of the side's group-by aggregate: one row per (trend, grouping
  * value) holding the aggregated measure. Constraint and grouping values are
  * canonicalized to strings so joins and oracle comparisons are type-stable.
  */
object Relations {

  /** Group-by aggregate producing the trend relation for one (g, m).
    *
    * Output columns: `<attr>_<side>` for every constraint attribute (fixed
    * attributes surface their constant), `__g<side>` (grouping value, string),
    * `__v<side>` (aggregated measure, double).
    */
  def trendRel(df: DataFrame, ts: TrendsetSpec, gm: GroupingMeasure, side: Int): DataFrame = {
    val base = ts.fixedTerms.foldLeft(df) { case (d, (a, v)) => d.filter(col(a).cast("string") === lit(v)) }
    val free = ts.freeAttrs
    val keys = free.map(a => col(a).cast("string").as(s"${a}_$side")) :+
      col(gm.grouping).cast("string").as(s"__g$side")
    val grouped = base.groupBy(keys: _*)
      .agg(call_function(gm.agg.sql, col(gm.measure).cast("double")).as(s"__v$side"))
    // Surface fixed constraint attributes as literal columns so the output
    // schema matches §3.1 (e.g. R1 = 'Asia' in Table 1).
    ts.fixedTerms.foldLeft(grouped) { case (d, (a, v)) => d.withColumn(s"${a}_$side", lit(v)) }
  }
}
