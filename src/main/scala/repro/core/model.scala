package repro.core

/** AST for COMPARE comparative expressions (paper §2.2, §3.1).
  *
  * A comparative query compares two trendsets over a relation. A trend is a
  * set of tuples selected by a conjunctive constraint, aggregated by
  * (grouping, measure); trends are compared with an aggregated distance
  * function `AGG OVER DIFF(p)` (Definition 8).
  */

/** Aggregate kinds usable as measures and as the scorer's outer aggregate. */
sealed abstract class AggKind(val sql: String) extends Serializable
object AggKind {
  case object Sum extends AggKind("SUM")
  case object Avg extends AggKind("AVG")
  case object Min extends AggKind("MIN")
  case object Max extends AggKind("MAX")

  val all: Seq[AggKind] = Seq(Sum, Avg, Min, Max)

  def find(s: String): Option[AggKind] = all.find(_.sql.equalsIgnoreCase(s.trim))
  def parse(s: String): AggKind =
    find(s).getOrElse(throw new IllegalArgumentException(s"unknown aggregate: ${s.trim.toUpperCase}"))
}

/** One `(grouping, measure)` pair (Definition 3). `grouping` and `measure`
  * are column names of the input relation; `agg` aggregates `measure` for
  * tuples sharing a grouping value.
  */
final case class GroupingMeasure(grouping: String, agg: AggKind, measure: String) {
  /** Display label used in the output's measure columns, e.g. "AVG(revenue)". */
  def measureLabel: String = s"${agg.sql}($measure)"
  override def toString: String = s"($grouping, $measureLabel)"
}

/** One conjunct of a trend constraint (Definition 2).
  *
  * `value = Some(v)` is a fixed equality filter `attr = v`;
  * `value = None` is the `[p]` shorthand of §2.2.2: the trendset contains one
  * trend per distinct value of `attr`.
  */
final case class ConstraintTerm(attr: String, value: Option[String]) {
  def isFree: Boolean = value.isEmpty
  override def toString: String = value.fold(attr)(v => s"$attr='$v'")
}

/** One trendset (Definition 4): a constraint template plus the (grouping,
  * measure) pairs its trends range over.
  */
final case class TrendsetSpec(constraint: Seq[ConstraintTerm], gms: Seq[GroupingMeasure]) {
  require(constraint.nonEmpty, "a trendset needs at least one constraint term")
  require(gms.nonEmpty, "a trendset needs at least one (grouping, measure)")
  require(constraint.map(_.attr).distinct.size == constraint.size,
    s"duplicate constraint attribute in $constraint")

  def attrs: Seq[String]               = constraint.map(_.attr)
  def freeAttrs: Seq[String]           = constraint.filter(_.isFree).map(_.attr)
  def fixedTerms: Seq[(String, String)] = constraint.collect { case ConstraintTerm(a, Some(v)) => (a, v) }
  def isFullyFixed: Boolean            = freeAttrs.isEmpty
}

/** Aggregated distance function `AGG OVER DIFF(p)` (Definition 8).
  * Euclidean distance = SUM OVER DIFF(2), Manhattan = SUM OVER DIFF(1), etc.
  */
final case class Scorer(agg: AggKind, p: Int) {
  require(p >= 1, s"DIFF exponent must be positive, got $p")
  def label: String = s"${agg.sql} OVER DIFF($p)"
  /** DIFF(m1, m2, p) = |m1 - m2|^p (Definition 7). */
  def diff(m1: Double, m2: Double): Double = Scorer.powAbs(m1 - m2, p)
}

object Scorer {
  /** |d|^p. p ∈ {1, 2} (Manhattan / Euclidean) avoid `math.pow` — they
    * dominate the comparison inner loop and the bound computations of Φp.
    */
  @inline def powAbs(d: Double, p: Int): Double = p match {
    case 1 => math.abs(d)
    case 2 => d * d
    case _ => math.pow(math.abs(d), p)
  }
}

/** Top-k selection over pair scores (§3.2): `ascending = true` selects the k
  * most similar pairs (smallest scores), `false` the k most different.
  */
final case class TopK(k: Int, ascending: Boolean) {
  require(k >= 1, s"k must be positive, got $k")
}

/** How trend pairs are enumerated between the two trendsets; inferred from
  * the constraint templates (Observation 1 plus the basic plan's
  * `R_i.c != R_j.c` non-identity condition; see DESIGN.md §2).
  */
sealed trait PairMode
object PairMode {
  /** Different constraint templates (Q1; examples 1a, 2a): all cross pairs
    * with the same (g, m); identical constraint assignments excluded when the
    * attribute sets coincide.
    */
  case object CrossConstraint extends PairMode

  /** Same varying constraint template on both sides (Q2, Q4): same (g, m),
    * pair emitted once with c1 < c2 (scores are symmetric).
    */
  case object SymmetricConstraint extends PairMode

  /** Both sides the same fully-fixed constraint (Q3; "varying attributes"):
    * pairs are (gm_i, gm_j) with the same grouping and different measures.
    */
  case object CrossMeasure extends PairMode
}

/** The full comparative expression `T1 <-> T2 USING F` (Definition 9). */
final case class CompareSpec(t1: TrendsetSpec, t2: TrendsetSpec, scorer: Scorer) {

  val pairMode: PairMode =
    if (t1.constraint == t2.constraint) {
      if (t1.isFullyFixed) PairMode.CrossMeasure else PairMode.SymmetricConstraint
    } else PairMode.CrossConstraint

  pairMode match {
    case PairMode.CrossMeasure => // gm lists may differ; pairs derived below
    case _ =>
      require(t1.gms == t2.gms,
        s"trendsets with different constraints must share (grouping, measure) lists: ${t1.gms} vs ${t2.gms}")
  }

  /** Indices (i into t1.gms, j into t2.gms) of comparable (g,m) pairs
    * (Definition 5 / Observation 1; relaxed to same-grouping for the
    * CrossMeasure mode, see DESIGN.md §2).
    */
  def comparableGmPairs: Seq[(Int, Int)] = pairMode match {
    case PairMode.CrossMeasure =>
      for {
        i <- t1.gms.indices
        j <- t2.gms.indices
        if i < j
        if t1.gms(i).grouping == t2.gms(j).grouping
        if t1.gms(i) != t2.gms(j)
      } yield (i, j)
    case _ =>
      t1.gms.indices.map(i => (i, i))
  }

  /** True when pairs with identical constraint values must be excluded
    * (same attribute sets on both sides — e.g. SFO vs SFO in Q1/Q2).
    */
  def excludeIdenticalConstraint: Boolean = t1.attrs == t2.attrs

  /** Every input column the expression touches (for rules R1/R3 and the
    * physical operator's column binding).
    */
  def referencedColumns: Seq[String] =
    (t1.attrs ++ t2.attrs ++
      (t1.gms ++ t2.gms).flatMap(gm => Seq(gm.grouping, gm.measure))).distinct

  /** Distinct grouping columns across both trendsets. */
  def groupingColumns: Seq[String] = (t1.gms ++ t2.gms).map(_.grouping).distinct

  override def toString: String =
    s"COMPARE [${t1.constraint.mkString(", ")} <-> ${t2.constraint.mkString(", ")}]" +
      s"[${t1.gms.mkString(", ")}] USING ${scorer.label}"
}

/** A single scored pair of trends — the engine-internal result record.
  *
  * @param c1  values of t1's constraint attributes (in template order)
  * @param c2  values of t2's constraint attributes
  * @param gm1 index into spec.t1.gms of the first trend's (g,m)
  * @param gm2 index into spec.t2.gms of the second trend's (g,m)
  */
final case class ScoredPair(c1: Seq[String], c2: Seq[String], gm1: Int, gm2: Int, score: Double)

/** A collected trend: its (g, m) index, constraint values, and the
  * grouping-value → aggregated-measure map (§2.2.1's `(c)(g, m)`).
  */
final case class TrendRow(gm: Int, c: Seq[String], data: Map[String, Double])
