package repro.catalyst

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate._
import org.apache.spark.sql.catalyst.planning.ExtractEquiJoinKeys
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.types.StringType
import repro.core._

/** Registered PK-FK constraints — the stand-in for the catalog's declared
  * key constraints that rule R1 relies on ("If one or more columns in Φ are
  * the PK columns … of the dimension tables"). Register pairs as
  * `(pkColumn, fkColumn)` by name.
  */
object PkFkHints {
  private val hints = scala.collection.concurrent.TrieMap.empty[(String, String), Unit]
  def register(pk: String, fk: String): Unit = hints.put((pk.toLowerCase, fk.toLowerCase), ())
  def clear(): Unit = hints.clear()
  def isRegistered(pk: String, fk: String): Boolean = hints.contains((pk.toLowerCase, fk.toLowerCase))
}

/** R1 — Φ(R ⋈ S) ≡ Φ^k(R) ⋈ S (Table 3): when the only dimension-side
  * column COMPARE references is the join's PK, replace it with the fact-side
  * FK and drop the join entirely (COMPARE's output needs no other dimension
  * columns; referential integrity is asserted by the [[PkFkHints]]
  * registration). Output attributes are preserved, so parents are unaffected.
  */
object PushCompareBelowJoin extends Rule[LogicalPlan] {
  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case cn @ CompareNode(_, _, ExtractEquiJoinKeys(Inner, Seq(l: AttributeReference),
        Seq(r: AttributeReference), None, _, left, right, _), _, _) =>
      push(cn, left, l, right, r).orElse(push(cn, right, r, left, l)).getOrElse(cn)
  }

  /** Attempt with `fact` holding the FK `fk` and `dim` holding the PK `pk`. */
  private def push(cn: CompareNode, fact: LogicalPlan, fk: AttributeReference,
                   dim: LogicalPlan, pk: AttributeReference): Option[LogicalPlan] = {
    val spec = cn.spec
    if (!PkFkHints.isRegistered(pk.name, fk.name)) return None
    val factCols = fact.output.map(_.name.toLowerCase).toSet
    val dimCols  = dim.output.map(_.name.toLowerCase).toSet
    val refs = spec.referencedColumns.map(_.toLowerCase)
    val dimRefs = refs.filter(c => dimCols.contains(c) && !factCols.contains(c))
    if (dimRefs != Seq(pk.name.toLowerCase)) return None
    if (!refs.forall(c => factCols.contains(c) || c == pk.name.toLowerCase)) return None

    def rename(n: String): String = if (n.equalsIgnoreCase(pk.name)) fk.name else n
    def renameTs(ts: TrendsetSpec): TrendsetSpec = TrendsetSpec(
      ts.constraint.map(t => t.copy(attr = rename(t.attr))),
      ts.gms.map(g => g.copy(grouping = rename(g.grouping), measure = rename(g.measure))))
    val spec2 = CompareSpec(renameTs(spec.t1), renameTs(spec.t2), spec.scorer)
    Some(cn.copy(spec = spec2, child = fact))
  }
}

/** R3 — σ_C(Φ(R)) ≡ Φ(σ_C(R)) for predicates on the partitioning column
  * (Table 3). The filter above Φ references output columns `a_1`/`a_2`; when
  * both sides are restricted to the same value set for the same base
  * attribute, that restriction is pushed to the input as `a IN (…)` (the
  * original filter is kept — it is cheap and keeps the rewrite trivially
  * sound).
  */
object PushFilterBelowCompare extends Rule[LogicalPlan] with PredicateHelper {
  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case f @ Filter(cond, cn @ CompareNode(spec, _, child, _, _))
        if spec.t1.attrs == spec.t2.attrs =>
      val conjuncts = splitConjunctivePredicates(cond)
      val pushable = spec.t1.freeAttrs.flatMap { a =>
        for {
          s1 <- valueSet(conjuncts, cn.output, s"${a}_1")
          s2 <- valueSet(conjuncts, cn.output, s"${a}_2")
          if s1 == s2
        } yield (a, s1)
      }
      if (pushable.isEmpty) f
      else {
        val childFilters = pushable.map { case (a, vs) =>
          val attr = child.output.find(_.name.equalsIgnoreCase(a)).get
          In(Cast(attr, StringType), vs.toSeq.sortBy(_.toString).map(Literal(_, StringType)))
        }
        val pushed = childFilters.reduce[Expression](And(_, _))
        child match {
          case Filter(existing, _) if existing.semanticEquals(pushed) => f // already pushed
          case _ => Filter(cond, cn.copy(child = Filter(pushed, child)))
        }
      }
  }

  /** The value set an output column is restricted to, if a conjunct pins it. */
  private def valueSet(conjuncts: Seq[Expression], out: Seq[Attribute],
                       colName: String): Option[Set[Any]] = {
    conjuncts.collectFirst {
      case EqualTo(a: AttributeReference, Literal(v, StringType))
          if a.name.equalsIgnoreCase(colName) && out.exists(_.exprId == a.exprId) => Set(v)
      case EqualTo(Literal(v, StringType), a: AttributeReference)
          if a.name.equalsIgnoreCase(colName) && out.exists(_.exprId == a.exprId) => Set(v)
      case In(a: AttributeReference, vs)
          if a.name.equalsIgnoreCase(colName) && out.exists(_.exprId == a.exprId) &&
            vs.forall(_.isInstanceOf[Literal]) =>
        vs.map(_.asInstanceOf[Literal].value).toSet
    }
  }
}

/** R2 — Υ_{G,A}(Φ(R)) ≡ Φ(Υ_{G,A}(R)) when Φ's measure aggregates are
  * duplicate-insensitive (Table 3 requires A ∈ {MAX, MIN}). Realized as
  * inserting a duplicate-removing aggregate over exactly the columns Φ
  * touches: MIN/MAX trends are invariant to duplicate removal, and the
  * smaller input shrinks every partition (§8.4's experiment).
  */
object DedupBelowCompare extends Rule[LogicalPlan] {
  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case cn @ CompareNode(spec, _, child, _, _)
        if (spec.t1.gms ++ spec.t2.gms).forall(g => g.agg == AggKind.Min || g.agg == AggKind.Max) &&
          !alreadyDeduped(spec, child) =>
      val cols = spec.referencedColumns.flatMap(c => child.output.find(_.name.equalsIgnoreCase(c)))
      if (cols.size == spec.referencedColumns.size)
        cn.copy(child = Aggregate(cols, cols, child))
      else cn
  }

  private def alreadyDeduped(spec: CompareSpec, child: LogicalPlan): Boolean = child match {
    case Aggregate(g, a, _, _) =>
      g.toSet == a.toSet && a.map(_.asInstanceOf[NamedExpression].name.toLowerCase).toSet ==
        spec.referencedColumns.map(_.toLowerCase).toSet
    case _ => false
  }
}

/** R5 — recognize the hand-written comparative sub-plan (the Figure 3 shape:
  * per-trend aggregates, a self-join on the grouping column with a `c1 < c2`
  * pair condition, and an outer `AGG(POWER(ABS(v1 − v2), p))` aggregate) and
  * replace it with Φ, so queries written without the extension still get the
  * COMPARE physical plan. Only the canonical deduplicated (`<`) form is
  * rewritten — the `!=` form has a different output shape (both directions).
  */
object ReduceToCompare extends Rule[LogicalPlan] {

  private def strip(e: Expression): Expression = e match {
    case a: Alias  => strip(a.child)
    case c: Cast   => strip(c.child)
    case other     => other
  }

  /** Match a trend-relation sub-aggregate: Aggregate([c, g], [c, g, AGG(m)]). */
  private case class TrendAgg(cOut: Attribute, gOut: Attribute, vOut: Attribute,
                              cName: String, gName: String, agg: AggKind, mName: String,
                              src: LogicalPlan)

  /** Unwrap pure-attribute (pass-through) projections the optimizer inserts
    * for column pruning.
    */
  private def stripProjects(plan: LogicalPlan): LogicalPlan = plan match {
    case Project(exprs, child) if exprs.forall(_.isInstanceOf[Attribute]) => stripProjects(child)
    case other => other
  }

  private def matchTrendAgg(plan: LogicalPlan): Option[TrendAgg] = stripProjects(plan) match {
    case Aggregate(groupExprs, aggExprs, src, _) if groupExprs.size == 2 && aggExprs.size == 3 =>
      val named = aggExprs.map(_.asInstanceOf[NamedExpression])
      val (keyExprs, valExprs) = named.partition(e => !containsAggExpr(e))
      // Two plain-column keys among the three expressions leave one value.
      keyExprs.map(e => (e.toAttribute, strip(e))) match {
        case Seq((cOut, c: AttributeReference), (gOut, g: AttributeReference)) =>
          aggOf(valExprs.head).collect { case (agg, m: AttributeReference) =>
            TrendAgg(cOut, gOut, valExprs.head.toAttribute, c.name, g.name, agg, m.name, src)
          }
        case _ => None
      }
    case _ => None
  }

  /** A non-distinct `AGG(x)`: its kind and its (stripped) argument. */
  private def aggOf(e: Expression): Option[(AggKind, Expression)] = strip(e) match {
    case AggregateExpression(fn, _, false, _, _) =>
      AggFunctions.kindOf(fn).map(_ -> strip(fn.children.head))
    case _ => None
  }

  private def containsAggExpr(e: Expression): Boolean =
    e.exists(_.isInstanceOf[AggregateExpression])

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case outer @ Aggregate(groupExprs, _, joinPlan, _) if groupExprs.size == 2 =>
      (stripProjects(joinPlan) match {
        case ExtractEquiJoinKeys(Inner, Seq(g1: AttributeReference), Seq(g2: AttributeReference),
            Some(cCond), _, left, right, _) =>
          for {
            ta1 <- matchTrendAgg(left)
            ta2 <- matchTrendAgg(right)
            if ta1.src.canonicalized == ta2.src.canonicalized
            if ta1.gName == ta2.gName && ta1.cName == ta2.cName
            if ta1.agg == ta2.agg && ta1.mName == ta2.mName
            // COMPARE orders constraint values as strings, so `a.c < b.c`
            // means the same only on string columns.
            if ta1.cOut.dataType == StringType && ta2.cOut.dataType == StringType
            if g1.exprId == ta1.gOut.exprId && g2.exprId == ta2.gOut.exprId
            if isLt(cCond, ta1.cOut, ta2.cOut)
            rewritten <- rewriteOuter(outer, ta1, ta2)
          } yield rewritten
        case _ => None
      }).getOrElse(outer)
  }

  private def isLt(e: Expression, x: Attribute, y: Attribute): Boolean = e match {
    case LessThan(a: AttributeReference, b: AttributeReference) =>
      a.exprId == x.exprId && b.exprId == y.exprId
    case GreaterThan(a: AttributeReference, b: AttributeReference) =>
      a.exprId == y.exprId && b.exprId == x.exprId
    case _ => false
  }

  /** Validate the outer aggregate's shape and emit the replacement:
    * a Project (preserving the original output attrs) over CompareNode.
    */
  private def rewriteOuter(outer: Aggregate, ta1: TrendAgg, ta2: TrendAgg): Option[LogicalPlan] = {
    val groupIds = outer.groupingExpressions.map(strip).collect { case a: Attribute => a.exprId }
    if (groupIds.toSet != Set(ta1.cOut.exprId, ta2.cOut.exprId)) return None

    def attrId(e: Expression): Option[ExprId] =
      Some(strip(e)).collect { case a: AttributeReference => a.exprId }

    /** `AGG(POWER(ABS(v1 - v2), p))` over the two trend values. */
    def scorerOf(e: Expression): Option[Scorer] = aggOf(e).flatMap {
      case (kind, Pow(absExpr, pLit)) =>
        val p = strip(pLit) match {
          case Literal(v: Double, _) if v.isWhole && v >= 1 => Some(v.toInt)
          case Literal(v: Int, _) if v >= 1                 => Some(v)
          case _                                            => None
        }
        val diffOfValues = strip(absExpr) match {
          case Abs(sub, _) => strip(sub) match {
            case Subtract(l, r, _) =>
              attrId(l).contains(ta1.vOut.exprId) && attrId(r).contains(ta2.vOut.exprId)
            case _ => false
          }
          case _ => false
        }
        p.filter(_ => diffOfValues).map(Scorer(kind, _))
      case _ => None
    }

    val scorer = outer.aggregateExpressions.flatMap(scorerOf).lastOption
    scorer.flatMap { sc =>
      val ts = TrendsetSpec(Seq(ConstraintTerm(ta1.cName, None)),
        Seq(GroupingMeasure(ta1.gName, ta1.agg, ta1.mName)))
      val cmp = CompareNode(CompareSpec(ts, ts, sc), None, ta1.src)
      // Each outer column is a pass-through of c1 or c2, or the score: rebuild
      // it (name, type, exprId preserved) from COMPARE's string-typed output
      // (c_1, c_2, grouping, measure_1, measure_2, score).
      def source(ne: NamedExpression): Option[Attribute] = strip(ne) match {
        case a: AttributeReference if a.exprId == ta1.cOut.exprId => Some(cmp.output.head)
        case a: AttributeReference if a.exprId == ta2.cOut.exprId => Some(cmp.output(1))
        case _ => scorerOf(ne).map(_ => cmp.output.last)
      }
      val projections = outer.aggregateExpressions.map { ne =>
        source(ne).map { src =>
          val orig = ne.toAttribute
          val e = if (src.dataType == orig.dataType) src else Cast(src, orig.dataType)
          Alias(e, orig.name)(exprId = orig.exprId)
        }
      }
      if (projections.exists(_.isEmpty)) None else Some(Project(projections.flatten, cmp))
    }
  }
}
