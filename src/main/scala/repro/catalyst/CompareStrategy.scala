package repro.catalyst

import org.apache.spark.sql.{ReproBridge, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{LocalTableScanExec, SparkPlan, SparkStrategy}

/** Plans the COMPARE logical operator into [[CompareTopKExec]] over the
  * shared-scan trend aggregate (§4's "replace COMPARE with a sub-plan of
  * physical operators"). The aggregate is built over the already-optimized
  * child and planned by Spark's own strategies, without another optimizer
  * pass. A spec with no comparable (g, m) pair has no trend to build and
  * plans as an empty relation, as the basic plan returns one.
  */
class CompareStrategy(spark: SparkSession) extends SparkStrategy {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case n: CompareNode if n.spec.comparableGmPairs.isEmpty => LocalTableScanExec(n.output, Nil, None) :: Nil
    case n: CompareNode =>
      val trends = new TrendAggregation(n.spec).plan(n.child)
      val trendsExec = ReproBridge.planner(spark).plan(trends).next()
      // The aggregate's logical nodes are not in the query's logical plan, so
      // the physical nodes that came from them are linked to the COMPARE
      // node: adaptive execution then maps the aggregate's shuffle stage
      // back to it instead of re-planning the query after every stage.
      trendsExec.foreach { p =>
        if (!p.logicalLink.exists(l => n.child.exists(_ eq l))) p.setTagValue(SparkPlan.LOGICAL_PLAN_TAG, n)
      }
      CompareTopKExec(n.spec, n.topK, n.cfg, n.output, trendsExec) :: Nil
    case _ => Nil
  }
}
