package repro.catalyst

import org.apache.spark.sql.{ReproBridge, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, UnaryNode}
import org.apache.spark.sql.execution.{LocalTableScanExec, SparkPlan, SparkStrategy}
import repro.core.CompareSpec

/** Plans the COMPARE logical operator into [[CompareTopKExec]] over the
  * shared-scan trend aggregate (§4's "replace COMPARE with a sub-plan of
  * physical operators"). The aggregate is built over the already-optimized
  * child and planned by Spark's own strategies, without another optimizer
  * pass. A spec with no comparable (g, m) pair has no trend to build and
  * plans as an empty relation, as the basic plan returns one.
  *
  * Only the aggregate's map side is planned: the partial aggregate, whose
  * rows the operator collects and merges on the driver
  * ([[TrendAggregation.decode]]), so a COMPARE query runs as one stage with
  * no shuffle. The operator collects every trend point anyway; the partial
  * rows add at most one row per group and input partition.
  *
  * Basis: Flight Q4 (10 AVG (g, m)s), Spark `local[4]` with cmpbench's
  * session settings on a 4-core box, median of 21 queries after 15 warm-up
  * ones, two runs, the partial aggregate merged on the driver vs partial →
  * hash `Exchange` → final aggregate: 40 airports × 61 days × 4 rows
  * (estimate 3 MB) 130–164 vs 219–226 ms; 40 × 61 × 16 (12 MB) 125–129 vs
  * 208–212 ms; 40 × 366 × 4 (18 MB) 137–146 vs 209–235 ms; 40 × 366 × 16
  * (72 MB) 309–345 vs 330–418 ms. No measured shape favoured the exchange.
  *
  * [[TrendAggregate]], the aggregate on its own, is planned the same way.
  */
class CompareStrategy(spark: SparkSession) extends SparkStrategy {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case n: CompareNode if n.spec.comparableGmPairs.isEmpty => LocalTableScanExec(n.output, Nil, None) :: Nil
    case n: CompareNode => CompareTopKExec(n.spec, n.topK, n.cfg, n.output, trends(n.spec, n)) :: Nil
    case n: TrendAggregate => trends(n.spec, n) :: Nil
    case _ => Nil
  }

  /** `spec`'s partial trend aggregate over `node`'s child. */
  private def trends(spec: CompareSpec, node: UnaryNode): SparkPlan = {
    // Spark plans the final aggregate right over the partial one, its only
    // child; the Exchange between them would come later (EnsureRequirements).
    val exec = ReproBridge.planner(spark).plan(new TrendAggregation(spec).plan(node.child)).next().children.head
    // The aggregate's logical nodes are not in the query's logical plan, so
    // the physical nodes that came from them are linked to `node`: each
    // node of the plan then links into the logical plan that adaptive
    // execution re-plans the query from.
    exec.foreach { p =>
      if (!p.logicalLink.exists(l => node.child.exists(_ eq l))) p.setTagValue(SparkPlan.LOGICAL_PLAN_TAG, node)
    }
    exec
  }
}
