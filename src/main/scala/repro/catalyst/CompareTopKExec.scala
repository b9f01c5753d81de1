package repro.catalyst

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, ReproBridge}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, AttributeSet, UnsafeProjection}
import org.apache.spark.sql.execution.{SQLExecution, SparkPlan, UnaryExecNode}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.metric.{SQLMetric, SQLMetrics}
import org.apache.spark.unsafe.types.UTF8String
import repro.core._
import repro.core.TrendModel.TrendBuilder

/** The COMPARE physical operator Φp (§5.3) as a Spark `UnaryExecNode`.
  *
  * It collects its child, the trend aggregate of [[TrendAggregation]],
  * builds the trends on the driver ([[repro.core.TrendModel.TrendBuilder]])
  * and hands them to [[PrunedTopK]]: with a fused top-k the bound→prune +
  * early-termination algorithm runs as `cfg` configures it; without one all
  * pairs are scored trendwise. Its metrics time the three phases
  * (`collectTime`, `trendTime`, `phiTime`); under adaptive execution the
  * aggregate's shuffle map stage runs before `collectTime` starts.
  * `executeCollect` returns the result rows directly, so a COMPARE query is
  * one Spark job.
  */
case class CompareTopKExec(
    spec: CompareSpec,
    topK: Option[TopK],
    cfg: PrunedTopK.Config,
    override val output: Seq[Attribute],
    child: SparkPlan)
  extends UnaryExecNode {

  override protected def withNewChildInternal(newChild: SparkPlan): CompareTopKExec =
    copy(child = newChild)

  override def producedAttributes: AttributeSet = AttributeSet(output)

  override lazy val metrics: Map[String, SQLMetric] = Map(
    "trends" -> SQLMetrics.createMetric(sparkContext, "number of trends"),
    "pairs" -> SQLMetrics.createMetric(sparkContext, "number of trend pairs"),
    "pairsPrunedInitial" -> SQLMetrics.createMetric(sparkContext, "pairs pruned by initial bounds"),
    "pairsPrunedSearch" -> SQLMetrics.createMetric(sparkContext, "pairs pruned during search"),
    "segments" -> SQLMetrics.createMetric(sparkContext, "segments processed"),
    "tuplesCompared" -> SQLMetrics.createMetric(sparkContext, "tuples compared"),
    "summarySize" -> SQLMetrics.createSizeMetric(sparkContext, "segment summary size"),
    "collectTime" -> SQLMetrics.createTimingMetric(sparkContext, "time to collect the trend aggregate"),
    "trendTime" -> SQLMetrics.createTimingMetric(sparkContext, "time to build trends"),
    "phiTime" -> SQLMetrics.createTimingMetric(sparkContext, "time in Φp's bound, prune and search"))

  private def result(): Array[InternalRow] = {
    val t0 = System.nanoTime()
    val rows = child.executeCollect()
    val t1 = System.nanoTime()
    val trends = new TrendAggregation(spec).decode(rows, new TrendBuilder(spec, cfg.numSegments))
    val (side1, side2) = trends.result()
    val t2 = System.nanoTime()
    val res = topK.fold(PrunedTopK.search(spec, side1, side2, TopK(Int.MaxValue, ascending = true),
      cfg.copy(usePruning = false)))(PrunedTopK.search(spec, side1, side2, _, cfg))
    val t3 = System.nanoTime()
    val st = res.stats
    Seq("trends" -> st.trendCount, "pairs" -> st.pairsTotal,
      "pairsPrunedInitial" -> st.pairsPrunedInitial, "pairsPrunedSearch" -> st.pairsPrunedSearch,
      "segments" -> st.segmentsProcessed, "tuplesCompared" -> st.tuplesCompared,
      "summarySize" -> st.summaryBytes, "collectTime" -> (t1 - t0) / 1000000L,
      "trendTime" -> (t2 - t1) / 1000000L, "phiTime" -> (t3 - t2) / 1000000L)
      .foreach { case (name, v) => metrics(name).set(v) }
    SQLMetrics.postDriverMetricUpdates(sparkContext,
      sparkContext.getLocalProperty(SQLExecution.EXECUTION_ID_KEY), metrics.values.toSeq)

    val proj = UnsafeProjection.create(output.map(_.dataType).toArray)
    res.pairs.map { p =>
      val gm1 = spec.t1.gms(p.gm1); val gm2 = spec.t2.gms(p.gm2)
      val strs = (p.c1 ++ p.c2 ++ Seq(gm1.grouping, gm1.measureLabel, gm2.measureLabel))
        .map(s => if (s == null) null else UTF8String.fromString(s))
      proj(InternalRow.fromSeq(strs :+ p.score)).copy(): InternalRow
    }.toArray
  }

  override def executeCollect(): Array[InternalRow] = result()

  protected override def doExecute(): RDD[InternalRow] =
    sparkContext.parallelize(result().toSeq, 1)
}

object CompareTopKExec extends AdaptiveSparkPlanHelper {
  /** The COMPARE operator in a DataFrame's executed plan (looking inside
    * adaptive query stages); after an action its `metrics` describe that run.
    */
  def in(df: DataFrame): Option[CompareTopKExec] =
    collectFirst(ReproBridge.executedPlan(df)) { case e: CompareTopKExec => e }
}
