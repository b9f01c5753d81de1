package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.apache.spark.sql.DataFrame
import repro.catalyst.TrendCollector
import repro.core._

/** UDF execution model simulation (§8's UDF baseline).
  *
  * The paper's UDF takes the UNION of all group-by aggregates (computed via
  * GROUPING SETS) and compares trends inside the database process, with two
  * structural handicaps the paper calls out: every aggregate row is
  * marshalled into the UDF invocation, and the UDF body runs sequentially
  * with limited resources. We reproduce both: Spark computes the union of
  * all group-by aggregates in one pass ([[TrendCollector]] — the GROUPING
  * SETS input), all rows pass through Java serialization (the marshalling
  * analogue), and the comparison runs single-threaded on the driver. The
  * comparison itself *does* use trendwise processing and segment-aggregate
  * pruning, as in the paper.
  */
object UdfBaseline {

  final case class Result(pairs: Seq[ScoredPair], stats: PrunedTopK.PruneStats,
                          marshalledBytes: Long)

  def topK(df: DataFrame, spec: CompareSpec, k: TopK): Result = {
    // Aggregate input (the GROUPING SETS union) computed by the engine.
    val (t1, t2) = TrendCollector.collect(df, spec)
    // Marshal the whole aggregate input through serialization, as a UDF
    // invocation would.
    val (t1m, b1) = roundTrip(t1.toList)
    val (t2m, b2) = roundTrip(t2.toList)
    val res = PrunedTopK.run(spec, t1m, t2m, k)
    Result(res.pairs, res.stats, b1 + b2)
  }

  /** `a` after Java serialization and back, and the serialized size: the
    * cost of marshalling it into a UDF (or, for MIDDLEWARE, onto the wire).
    */
  private[baselines] def roundTrip[A <: AnyRef](a: A): (A, Long) = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(a)
    oos.close()
    val bytes = bos.toByteArray
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    (ois.readObject().asInstanceOf[A], bytes.length.toLong)
  }
}
