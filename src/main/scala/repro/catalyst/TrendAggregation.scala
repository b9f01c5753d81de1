package repro.catalyst

import java.util.Objects

import scala.collection.immutable.VectorMap
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, ReproBridge}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate.{AggregateExpression, AggregateFunction, Average, Max, Min, Sum}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Expand, Filter, LogicalPlan, Project, UnaryNode}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.{BooleanType, DataType, DoubleType, IntegerType, StringType}
import org.apache.spark.unsafe.types.UTF8String
import repro.core._
import repro.core.TrendModel.{SegTrend, TrendBuilder}

/** Side `side`'s grouping set on column `grouping`; `members` index its (g, m)s. */
private final case class GroupingSet(side: Int, grouping: String, members: Seq[Int])

/** An aggregate row's (set, c, g), its first `n` fields, hashed and compared
  * in place.
  */
private final class GroupKey(private val row: InternalRow, n: Int) {
  private def field(i: Int): UTF8String = if (row.isNullAt(i)) null else row.getUTF8String(i)
  override val hashCode: Int = (1 until n).foldLeft(row.getInt(0))((h, i) => 31 * h + Objects.hashCode(field(i)))
  override def equals(other: Any): Boolean = other match {
    case k: GroupKey => row.getInt(0) == k.row.getInt(0) && (1 until n).forall(i => field(i) == k.field(i))
    case _ => false
  }
}

/** The shared-scan trend builder (§4.2): one GROUPING SETS aggregate over
  * the input, planned and code-generated by Spark like any other aggregate.
  *
  * {{{
  *   Aggregate [grouping_id, c_1..c_n, g] [AGG(v_j) per distinct (g, m)]
  *     (Filter keep)               -- two sides with different fixed terms
  *       Expand                    -- one row per grouping set (side, g)
  *         Project                 -- CAST(keys AS STRING), CAST(measures AS DOUBLE)
  *           (Filter fixed terms)  -- when every side has fixed terms
  *             child
  * }}}
  *
  * A side is a distinct constraint template, so symmetric comparisons
  * aggregate once. A set's free constraint values fill `c_1..c_n` and its
  * grouping value fills `g`, so every NULL in a key is a real NULL and
  * `grouping_id` names the set; `v_j` carries its measure only in the sets
  * of its (g, m). The layout depends on the spec and `members` alone: [[plan]]
  * builds the aggregate, and [[decode]] and [[trendRel]] read its rows.
  *
  * The COMPARE operator reads the rows of the map-side partial aggregate
  * ([[CompareStrategy]]), which [[decode]] merges on the driver: there a
  * SUM, MIN or MAX is its value and an AVG its sum and count (Spark's
  * `Average` buffer). [[over]] runs the whole aggregate, whose final rows
  * hold one value per (g, m).
  *
  * `members` are the (trendset, (g, m))s to aggregate: by default the
  * comparable ones of the spec; the merged-aggregate ablation stage
  * ([[repro.core.BasicExec]]) passes the (g, m)s Algorithm 1 merges.
  */
private[repro] final class TrendAggregation(spec: CompareSpec,
                                            members: Seq[(TrendsetSpec, GroupingMeasure)]) {

  def this(spec: CompareSpec) = this(spec, TrendAggregation.members(spec))

  private val templates = members.map(_._1.constraint).distinct
  private def sideOf(ts: TrendsetSpec): Int = templates.indexOf(ts.constraint)

  private val needed: Seq[(Int, GroupingMeasure)] =
    members.map { case (ts, gm) => (sideOf(ts), gm) }.distinct
  /** One aggregate (and measure slot) per distinct (g, m). */
  private val gms: Seq[GroupingMeasure] = needed.map(_._2).distinct
  private val sets: Seq[GroupingSet] =
    needed.map { case (s, gm) => (s, gm.grouping) }.distinct.map { case (s, g) =>
      GroupingSet(s, g, gms.indices.filter(j => gms(j).grouping == g && needed.contains((s, gms(j)))))
    }
  private val nC = templates.map(_.count(_.isFree)).max
  /** The ordinal of `g`; the aggregate columns follow it. */
  private val gOrd = 1 + nC
  /** Each (g, m)'s column in a final or a partial row; in a partial row an
    * AVG's count follows its sum.
    */
  private def aggCols(partial: Boolean): Array[Int] =
    gms.scanLeft(gOrd + 1)((o, gm) => o + (if (partial && gm.agg == AggKind.Avg) 2 else 1)).init.toArray

  /** The aggregate over `child`, with output `grouping_id, c_1..c_n, g`,
    * then per (g, m) `agg_j`.
    */
  def plan(child: LogicalPlan): Aggregate = {
    val tz = Option(SQLConf.get.sessionLocalTimeZone)
    def attr(name: String): Attribute =
      child.output.find(_.name.equalsIgnoreCase(name)).getOrElse(throw new IllegalArgumentException(
        s"COMPARE column '$name' not found in ${child.output.map(_.name)}"))
    def as(e: Expression, dt: DataType): Expression = if (e.dataType == dt) e else Cast(e, dt, tz)

    // One predicate per distinct condition: sides with the same fixed terms share it.
    val conds: Seq[Option[Expression]] = templates.map(_.collect {
      case ConstraintTerm(a, Some(v)) => EqualTo(as(attr(a), StringType), Literal(v)): Expression
    }.reduceOption(And))
    val distinctConds = conds.distinct
    val scan = if (conds.forall(_.isDefined)) Filter(distinctConds.flatten.reduce(Or), child) else child
    // Two sides that differ in fixed terms: each grouping set keeps only the
    // rows of its own side.
    val needKeep = distinctConds.size > 1

    val keyNames = (templates.flatMap(_.filter(_.isFree).map(_.attr)) ++ sets.map(_.grouping))
      .distinctBy(_.toLowerCase)
    val keys = keyNames.map(n => n.toLowerCase -> Alias(as(attr(n), StringType), n)()).to(VectorMap)
    val measures = gms.map(_.measure).distinctBy(_.toLowerCase)
      .map(n => n.toLowerCase -> Alias(as(attr(n), DoubleType), n)()).to(VectorMap)
    val ins = distinctConds.zipWithIndex
      .collect { case (Some(c), i) if needKeep => c -> Alias(c, s"in$i")() }.to(VectorMap)
    val project = Project((keys.values ++ measures.values ++ ins.values).toSeq, scan)

    val gid = AttributeReference("grouping_id", IntegerType, nullable = false)()
    val cSlots = (1 to nC).map(i => AttributeReference(s"c$i", StringType)())
    val gSlot = AttributeReference("g", StringType)()
    val vSlots = gms.indices.map(j => AttributeReference(s"v${j + 1}", DoubleType)())
    val keep = Option.when(needKeep)(AttributeReference("keep", BooleanType)())
    val projections = sets.zipWithIndex.map { case (set, i) =>
      val free = templates(set.side).filter(_.isFree).map(t => keys(t.attr.toLowerCase).toAttribute)
      Seq(Literal(i)) ++ free ++ Seq.fill(nC - free.size)(Literal(null, StringType)) ++
        Seq(keys(set.grouping.toLowerCase).toAttribute) ++
        gms.indices.map(j =>
          if (set.members.contains(j)) measures(gms(j).measure.toLowerCase).toAttribute
          else Literal(null, DoubleType)) ++
        keep.map(_ => conds(set.side).fold[Expression](Literal(true))(ins(_).toAttribute))
    }
    val groupBy = gid +: cSlots :+ gSlot
    val expand = Expand(projections, groupBy ++ vSlots ++ keep, project)
    val input = keep.fold[LogicalPlan](expand)(Filter(_, expand))
    val aggs = gms.zip(vSlots).zipWithIndex.map { case ((gm, v), j) =>
      Alias(AggFunctions.of(gm.agg, v).toAggregateExpression(), s"agg${j + 1}")()
    }
    Aggregate(groupBy, groupBy ++ aggs, input, None)
  }

  /** The aggregate's rows as trend points into `into`, which it returns.
    * `partial` rows repeat a (set, c, g) once per task that saw it: they are
    * merged first (and consumed: a group's rows are merged into its first),
    * and an AVG is its sum over its count. Final rows are read as they are.
    * A NULL grouping value belongs to no trend; a NULL aggregate (every
    * measure NULL) is no point of its trend.
    */
  def decode(rows: Array[InternalRow], partial: Boolean, into: TrendBuilder): TrendBuilder = {
    val cols = aggCols(partial)
    // Per set: each member's trend builder id, column and whether it is a sum and a count.
    val memberCols = sets.map(set => set.members.map(j =>
      (into.member(templates(set.side), gms(j)), cols(j), partial && gms(j).agg == AggKind.Avg)).toArray).toArray
    val groups = if (partial) merged(rows, cols).iterator.asScala else rows.iterator
    groups.foreach { row =>
      val set = row.getInt(0)
      if (!row.isNullAt(gOrd)) {
        val g = row.getUTF8String(gOrd).toString
        var free = 0
        val c = templates(sets(set).side).map(_.value.getOrElse {
          free += 1
          if (row.isNullAt(free)) null else row.getUTF8String(free).toString
        })
        memberCols(set).foreach { case (id, o, sumCount) =>
          if (sumCount) { if (row.getLong(o + 1) > 0) into.add(id, c, g, row.getDouble(o) / row.getLong(o + 1)) }
          else if (!row.isNullAt(o)) into.add(id, c, g, row.getDouble(o))
        }
      }
    }
    into
  }

  /** Partial `rows`, aggregate columns `cols`, with the rows of each
    * (set, c, g) merged into the first, in first-seen order, as Spark's
    * final aggregate merges them: MIN and MAX order NaN above +∞, a SUM
    * stays NULL until a non-NULL value arrives, and AVG counts add.
    */
  private def merged(rows: Array[InternalRow], cols: Array[Int]): java.util.Collection[InternalRow] = {
    val groups = new java.util.LinkedHashMap[GroupKey, InternalRow]()
    rows.foreach { row =>
      val acc = groups.putIfAbsent(new GroupKey(row, gOrd + 1), row)
      if (acc != null) gms.indices.foreach { j =>
        val o = cols(j)
        if (!row.isNullAt(o)) {
          val v = row.getDouble(o)
          if (acc.isNullAt(o)) acc.setDouble(o, v)
          else gms(j).agg match {
            case AggKind.Sum | AggKind.Avg => acc.setDouble(o, acc.getDouble(o) + v)
            case AggKind.Min => if (java.lang.Double.compare(v, acc.getDouble(o)) < 0) acc.setDouble(o, v)
            case AggKind.Max => if (java.lang.Double.compare(v, acc.getDouble(o)) > 0) acc.setDouble(o, v)
          }
        }
        if (gms(j).agg == AggKind.Avg) acc.setLong(o + 1, acc.getLong(o + 1) + row.getLong(o + 1))
      }
    }
    groups.values
  }

  /** The aggregate over `df`'s rows. */
  def over(df: DataFrame): DataFrame =
    ReproBridge.ofRows(df.sparkSession, plan(ReproBridge.analyzedPlan(df)))

  /** The trend relation of member (`ts`, `gm`) read out of `agg`, the output
    * of [[over]]: the columns of the basic plan's per-(g, m) group-by
    * ([[repro.core.BasicExec]]) for side `side` (`<attr>_<side>` with fixed
    * terms as literals, `__g<side>`, `__v<side>`).
    */
  def trendRel(agg: DataFrame, ts: TrendsetSpec, gm: GroupingMeasure, side: Int): DataFrame = {
    val j = gms.indexOf(gm)
    val set = sets.indexWhere(s => s.side == sideOf(ts) && s.members.contains(j))
    require(set >= 0, s"($ts, $gm) is not aggregated here")
    var free = 0
    val cs = ts.constraint.map {
      case ConstraintTerm(a, Some(v)) => lit(v).as(s"${a}_$side")
      case ConstraintTerm(a, None) =>
        free += 1
        col(s"c$free").as(s"${a}_$side")
    }
    agg.filter(col("grouping_id") === set)
      .select(cs :+ col("g").as(s"__g$side") :+ col(s"agg${j + 1}").as(s"__v$side"): _*)
  }
}

private[repro] object TrendAggregation {
  /** The spec's comparable (trendset, (g, m))s, one per constraint template
    * and (g, m): the two sides of a symmetric spec share theirs.
    */
  def members(spec: CompareSpec): Seq[(TrendsetSpec, GroupingMeasure)] =
    (spec.comparableGmPairs.map(_._1).distinct.map(i => spec.t1 -> spec.t1.gms(i)) ++
      spec.comparableGmPairs.map(_._2).distinct.map(j => spec.t2 -> spec.t2.gms(j)))
      .distinctBy { case (ts, gm) => (ts.constraint, gm) }
}

/** [[TrendAggregation]]'s aggregate of `spec` over `child` as one logical
  * operator, which [[CompareStrategy]] plans as it plans the COMPARE
  * operator's: its output is the partial aggregate's, the grouping columns
  * and each aggregate's buffer. [[TrendCollector]] runs it.
  */
private[repro] case class TrendAggregate(spec: CompareSpec, child: LogicalPlan, output: Seq[Attribute])
  extends UnaryNode {

  override protected def withNewChildInternal(newChild: LogicalPlan): TrendAggregate =
    copy(child = newChild)

  override lazy val resolved: Boolean = childrenResolved
  override def producedAttributes: AttributeSet = AttributeSet(output)
  override lazy val references: AttributeSet = CompareNode.references(spec, child)
}

private[repro] object TrendAggregate {
  def apply(spec: CompareSpec, child: LogicalPlan): TrendAggregate = {
    val agg = new TrendAggregation(spec).plan(child)
    new TrendAggregate(spec, child, agg.groupingExpressions.collect { case a: Attribute => a } ++
      agg.aggregateExpressions.flatMap(_.collect { case e: AggregateExpression => e.aggregateFunction }
        .flatMap(_.aggBufferAttributes)))
  }
}

/** [[CompareTopKExec]]'s trend aggregate, planned as the operator plans it,
  * its trends handed off as [[TrendRow]]s: what the UDF baseline marshals.
  */
object TrendCollector {
  def collect(df: DataFrame, spec: CompareSpec): (Seq[TrendRow], Seq[TrendRow]) =
    if (spec.comparableGmPairs.isEmpty) (Nil, Nil) // no trend to build, as in CompareStrategy
    else {
      val aggregate = TrendAggregate(spec, ReproBridge.analyzedPlan(df))
      val rows = ReproBridge.executeCollect(ReproBridge.ofRows(df.sparkSession, aggregate))
      val (side1, side2) = new TrendAggregation(spec).decode(rows, partial = true, new TrendBuilder(spec, None)).result()
      def handOff(side: Seq[SegTrend]) = side.map(t =>
        TrendRow(t.gm, t.c, t.codes.indices.map(k => t.dict.values(t.codes(k)) -> t.values(k)).toMap))
      (handOff(side1), handOff(side2))
    }
}

/** [[AggKind]] ↔ Catalyst aggregate function, one function per direction. */
private[catalyst] object AggFunctions {
  def of(kind: AggKind, child: Expression): AggregateFunction = kind match {
    case AggKind.Sum => Sum(child)
    case AggKind.Avg => Average(child)
    case AggKind.Min => Min(child)
    case AggKind.Max => Max(child)
  }

  def kindOf(fn: AggregateFunction): Option[AggKind] = fn match {
    case _: Sum     => Some(AggKind.Sum)
    case _: Average => Some(AggKind.Avg)
    case _: Min     => Some(AggKind.Min)
    case _: Max     => Some(AggKind.Max)
    case _          => None
  }
}
