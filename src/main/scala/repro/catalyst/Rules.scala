package repro.catalyst

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate._
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
    case cn @ CompareNode(_, _, Join(left, right, Inner, Some(cond), _), _, _) =>
      tryPush(cn, left, right, cond).getOrElse(cn)
  }

  private def tryPush(cn: CompareNode, left: LogicalPlan, right: LogicalPlan,
                      cond: Expression): Option[LogicalPlan] = cond match {
    case EqualTo(a: AttributeReference, b: AttributeReference) =>
      def sideOf(attr: AttributeReference): Option[Boolean] = // true = left
        if (left.outputSet.contains(attr)) Some(true)
        else if (right.outputSet.contains(attr)) Some(false) else None
      (sideOf(a), sideOf(b)) match {
        case (Some(sa), Some(sb)) if sa != sb =>
          val (l, r) = if (sa) (a, b) else (b, a) // l on left, r on right
          push(cn, left, l, right, r).orElse(push(cn, right, r, left, l))
        case _ => None
      }
    case _ => None
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
object PushFilterBelowCompare extends Rule[LogicalPlan] {
  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformUp {
    case f @ Filter(cond, cn @ CompareNode(spec, _, child, _, _))
        if spec.t1.attrs == spec.t2.attrs =>
      val conjuncts = splitConjuncts(cond)
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

  private def splitConjuncts(e: Expression): Seq[Expression] = e match {
    case And(l, r) => splitConjuncts(l) ++ splitConjuncts(r)
    case other     => Seq(other)
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
      (matchJoin(stripProjects(joinPlan)) match {
        case Some((left, right, gCond, cCond)) =>
          for {
            ta1 <- matchTrendAgg(left)
            ta2 <- matchTrendAgg(right)
            if ta1.src.canonicalized == ta2.src.canonicalized
            if ta1.gName == ta2.gName && ta1.cName == ta2.cName
            if ta1.agg == ta2.agg && ta1.mName == ta2.mName
            // COMPARE orders constraint values as strings, so `a.c < b.c`
            // means the same only on string columns.
            if ta1.cOut.dataType == StringType && ta2.cOut.dataType == StringType
            if isEq(gCond, ta1.gOut, ta2.gOut)
            if isLt(cCond, ta1.cOut, ta2.cOut)
            rewritten <- rewriteOuter(outer, ta1, ta2)
          } yield rewritten
        case None => None
      }).getOrElse(outer)
  }

  private def matchJoin(plan: LogicalPlan): Option[(LogicalPlan, LogicalPlan, Expression, Expression)] =
    plan match {
      case Join(l, r, Inner, Some(cond), _) =>
        val cs = cond match {
          case And(a, b) => Seq(a, b)
          case _         => return None
        }
        cs match {
          case Seq(a, b) if a.isInstanceOf[EqualTo] => Some((l, r, a, b))
          case Seq(a, b) if b.isInstanceOf[EqualTo] => Some((l, r, b, a))
          case _ => None
        }
      case _ => None
    }

  private def isEq(e: Expression, x: Attribute, y: Attribute): Boolean = e match {
    case EqualTo(a: AttributeReference, b: AttributeReference) =>
      (a.exprId == x.exprId && b.exprId == y.exprId) || (a.exprId == y.exprId && b.exprId == x.exprId)
    case _ => false
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

    // Outer agg exprs: c1, c2 pass-throughs plus the score.
    def roleOf(ne: NamedExpression): Option[String] = strip(ne) match {
      case a: AttributeReference if a.exprId == ta1.cOut.exprId => Some("c1")
      case a: AttributeReference if a.exprId == ta2.cOut.exprId => Some("c2")
      case _ => scorerOf(ne).map(_ => "score")
    }
    val outCols = outer.aggregateExpressions.map(ne => roleOf(ne).map(_ -> ne))
    val scorer = outer.aggregateExpressions.flatMap(scorerOf).lastOption
    if (outCols.exists(_.isEmpty) || scorer.isEmpty) return None

    val ts = TrendsetSpec(Seq(ConstraintTerm(ta1.cName, None)),
      Seq(GroupingMeasure(ta1.gName, ta1.agg, ta1.mName)))
    val spec = CompareSpec(ts, ts, scorer.get)
    val cmp = CompareNode(spec, None, ta1.src)
    val byName = cmp.output.map(a => a.name -> a).toMap

    // Rebuild the original output columns (names, types, exprIds preserved)
    // from COMPARE's string-typed output.
    val projections = outCols.flatten.map { case (role, orig) =>
      val origAttr = orig.toAttribute
      val srcAttr = role match {
        case "c1"    => byName(s"${ta1.cName}_1")
        case "c2"    => byName(s"${ta2.cName}_2")
        case "score" => byName("score")
      }
      val e: Expression =
        if (srcAttr.dataType == origAttr.dataType) srcAttr else Cast(srcAttr, origAttr.dataType)
      Alias(e, origAttr.name)(exprId = origAttr.exprId)
    }
    Some(Project(projections, cmp))
  }
}
