package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Experiments

/** spark-submit entrypoints, one per reproduced evaluation artifact.
  *
  * Example:
  * {{{
  * spark-submit --class repro.jobs.RunEndToEnd <repro.jar> flight
  * }}}
  * Each prints the same markdown table its bench-suite counterpart asserts
  * on (see EXPERIMENTS.md).
  */
object JobSession {
  def get(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
}

/** Table 5: dataset shapes. */
object RunDatasets {
  def main(args: Array[String]): Unit = Experiments.datasets(JobSession.get("repro-datasets"))
}

/** Figure 9a: end-to-end latency. Arg: `flight` (default) or `tpcds`. */
object RunEndToEnd {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("flight")
    Experiments.endToEnd(JobSession.get(s"repro-e2e-$dataset"), dataset)
  }
}

/** Figure 9b: optimization ablation on the flight dataset. */
object RunAblation {
  def main(args: Array[String]): Unit = Experiments.ablation(JobSession.get("repro-ablation"))
}

/** Figure 10: data-characteristic sensitivity sweeps. */
object RunSensitivity {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("repro-sensitivity")
    Experiments.sensitivityTrends(spark)
    Experiments.sensitivityGms(spark)
    Experiments.sensitivityFixedSize(spark)
  }
}

/** Figures 11–12: segment-aggregate count / tuples-per-update sweep. */
object RunSegments {
  def main(args: Array[String]): Unit = Experiments.segmentSweep(JobSession.get("repro-segments"))
}

/** Figure 13: transformation-rule pushdown gains. */
object RunRules {
  def main(args: Array[String]): Unit =
    Experiments.transformationRules(JobSession.get("repro-rules"))
}

/** Figure 15: parallelism sweep and Φp memory overhead. */
object RunParallelism {
  def main(args: Array[String]): Unit = Experiments.parallelism(JobSession.get("repro-parallelism"))
}
