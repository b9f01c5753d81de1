package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import repro.catalyst.CompareSession

/** COMPARE composed with a join back to the base table (§3.2). */
object Compare {

  /** §3.2 composition: select the base-table tuples belonging to either trend
    * of each top-k pair, annotated with the pair's identity and score.
    */
  def topKJoin(df: DataFrame, spec: CompareSpec, k: TopK): DataFrame = {
    val top = CompareSession.compare(df, spec, Some(k))
    val matchSide1: Column = spec.t1.attrs
      .map(a => df(a).cast("string") === top(s"${a}_1")).reduce(_ && _)
    val matchSide2: Column = spec.t2.attrs
      .map(a => df(a).cast("string") === top(s"${a}_2")).reduce(_ && _)
    df.join(top, matchSide1 || matchSide2)
  }
}
