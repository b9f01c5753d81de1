package repro.catalyst

import org.apache.spark.sql.{DataFrame, ReproBridge, SparkSession, SparkSessionExtensions}
import repro.core.{CompareSpec, PrunedTopK, TopK}

/** Installs the COMPARE extensions on a session.
  *
  * Two paths (§7 "these optimizations can be incorporated in other database
  * engines supporting cost-based optimizations and addition of new
  * transformation rules"):
  *
  *   - [[CompareExtensions]] — `SparkSessionExtensions` builder for sessions
  *     created with `.withExtensions(new CompareExtensions)` (also injects
  *     the COMPARE SQL parser);
  *   - [[CompareSession.install]] — runtime injection through
  *     `spark.experimental`, used by tests whose shared session predates
  *     extension wiring.
  *
  * Rule R5 ([[ReduceToCompare]]) is opt-in: it rewrites *user* plans that
  * happen to match the comparative shape, which callers must ask for.
  */
object CompareSession {

  def install(spark: SparkSession, withR5: Boolean = false): Unit = synchronized {
    if (!spark.experimental.extraStrategies.exists(_.isInstanceOf[CompareStrategy]))
      spark.experimental.extraStrategies = new CompareStrategy(spark) +: spark.experimental.extraStrategies
    val rules = baseRules ++ (if (withR5) Seq(ReduceToCompare) else Nil)
    val present = spark.experimental.extraOptimizations.toSet
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations ++ rules.filterNot(present.contains)
  }

  def uninstallR5(spark: SparkSession): Unit = synchronized {
    spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_ == ReduceToCompare)
  }

  private[catalyst] def baseRules = Seq(PushCompareBelowJoin, PushFilterBelowCompare, DedupBelowCompare)

  /** Build a DataFrame whose plan is Φ over `df` — the logical-operator
    * entry point (planned by [[CompareStrategy]] into [[CompareTopKExec]]).
    * `cfg` configures Φp: the Fig. 9b ablation stages and the Fig. 11 sweep.
    */
  def compare(df: DataFrame, spec: CompareSpec, topK: Option[TopK] = None,
              cfg: PrunedTopK.Config = PrunedTopK.Config()): DataFrame = {
    val spark = df.sparkSession
    install(spark)
    ReproBridge.ofRows(spark, CompareNode(spec, topK, ReproBridge.analyzedPlan(df), cfg))
  }
}

/** `SparkSessionExtensions` builder: strategy, rules (R1–R3), and the
  * COMPARE SQL parser.
  */
class CompareExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(ext: SparkSessionExtensions): Unit = {
    ext.injectPlannerStrategy(session => new CompareStrategy(session))
    CompareSession.baseRules.foreach(rule => ext.injectOptimizerRule(_ => rule))
    ext.injectParser((_, delegate) => new CompareSqlParser(delegate))
  }
}
