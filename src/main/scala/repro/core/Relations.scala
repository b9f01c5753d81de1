package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Shared DataFrame builders for the execution strategies of §4.
  *
  * A *trend relation* for a trendset side and one (grouping, measure) is the
  * output of the side's group-by aggregate: one row per (trend, grouping
  * value) holding the aggregated measure. Constraint and grouping values are
  * canonicalized to strings so joins and oracle comparisons are type-stable.
  */
object Relations {

  /** Separator used when concatenating constraint values into a single key. */
  val KeySep = "\u0001"

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
    val m = col(gm.measure).cast("double")
    val agg = (gm.agg match {
      case AggKind.Sum => sum(m)
      case AggKind.Avg => avg(m)
      case AggKind.Min => min(m)
      case AggKind.Max => max(m)
    }).as(s"__v$side")
    val grouped = base.groupBy(keys: _*).agg(agg)
    // Surface fixed constraint attributes as literal columns so the output
    // schema matches §3.1 (e.g. R1 = 'Asia' in Table 1).
    ts.fixedTerms.foldLeft(grouped) { case (d, (a, v)) => d.withColumn(s"${a}_$side", lit(v)) }
  }

  /** Join condition restricting which trend pairs are compared, per pair mode
    * (the basic plan's `R_i.c != R_j.c`, canonicalized for symmetric sides).
    * It is SQL's three-valued logic: a symmetric pair with a NULL constraint
    * value is not emitted, and a cross pair is kept only when some attribute
    * pair is non-NULL and different.
    */
  def pairCondition(spec: CompareSpec, left: DataFrame, right: DataFrame): Column = {
    val eqG = left("__g1") === right("__g2")
    def key(cs: Seq[Column]): Column = concat(cs.flatMap(c => Seq(lit(KeySep), c)).tail: _*)
    spec.pairMode match {
      case PairMode.SymmetricConstraint =>
        eqG && key(spec.t1.attrs.map(a => left(s"${a}_1"))) < key(spec.t2.attrs.map(a => right(s"${a}_2")))
      case PairMode.CrossConstraint if spec.excludeIdenticalConstraint =>
        val same = spec.t1.attrs.zip(spec.t2.attrs)
          .map { case (a1, a2) => left(s"${a1}_1") === right(s"${a2}_2") }
          .reduce(_ && _)
        eqG && !same
      case _ => eqG
    }
  }

  /** Scorer as a Catalyst aggregate over the per-grouping DIFF column. */
  def scoreAgg(scorer: Scorer, diffCol: Column): Column = {
    val d = pow(abs(diffCol), scorer.p)
    scorer.agg match {
      case AggKind.Sum => sum(d)
      case AggKind.Avg => avg(d)
      case AggKind.Min => min(d)
      case AggKind.Max => max(d)
    }
  }
}
