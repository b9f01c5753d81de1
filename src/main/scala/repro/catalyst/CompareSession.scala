package repro.catalyst

import org.apache.spark.sql.{DataFrame, ReproBridge, SparkSessionExtensions}
import repro.core.{CompareSpec, PrunedTopK, TopK}

/** The DataFrame entry point to COMPARE. Its session must be built with
  * [[CompareExtensions]], which plans the node.
  */
object CompareSession {

  /** Build a DataFrame whose plan is Φ over `df` — the logical-operator
    * entry point (planned by [[CompareStrategy]] into [[CompareTopKExec]]).
    * `cfg` configures Φp: the Fig. 9b ablation stages and the Fig. 11 sweep.
    */
  def compare(df: DataFrame, spec: CompareSpec, topK: Option[TopK] = None,
              cfg: PrunedTopK.Config = PrunedTopK.Config()): DataFrame =
    ReproBridge.ofRows(df.sparkSession, CompareNode(spec, topK, ReproBridge.analyzedPlan(df), cfg))
}

/** The one way COMPARE enters a Spark session (§7: the optimizations enter an
  * engine as new transformation rules and a new physical operator): build the
  * session with `.withExtensions(new CompareExtensions)` or set
  * `spark.sql.extensions=repro.catalyst.CompareExtensions`. Injects the
  * planner strategy, rules R1–R3 into the operator-optimization batch, and the
  * COMPARE SQL parser.
  *
  * Rule R5 ([[ReduceToCompare]]) is not injected: it rewrites *user* plans
  * that happen to match the comparative shape, which a caller must ask for by
  * adding it to the session's optimizer rules.
  */
class CompareExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(ext: SparkSessionExtensions): Unit = {
    ext.injectPlannerStrategy(session => new CompareStrategy(session))
    Seq(PushCompareBelowJoin, PushFilterBelowCompare, DedupBelowCompare)
      .foreach(rule => ext.injectOptimizerRule(_ => rule))
    ext.injectParser((_, delegate) => new CompareSqlParser(delegate))
  }
}
