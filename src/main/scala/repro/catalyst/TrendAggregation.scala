package repro.catalyst

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, ReproBridge, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Attribute
import repro.core._

/** The shared-scan trend-building pipeline of Φp (§4.2 realized at the scan
  * level): one pass over the input computes decomposable partials
  * `(sum, count, min, max)` per (side, (g,m), trend, grouping value) with
  * partition-local hash aggregation, then trends are assembled per key.
  *
  * The only trend builder: used by [[CompareTopKExec]] (over its physical
  * child) and by [[TrendCollector]] (over a DataFrame).
  */
private[catalyst] object TrendAggregation {

  private def ref(output: Seq[Attribute], name: String): ColRef = {
    val i = output.indexWhere(_.name.equalsIgnoreCase(name))
    require(i >= 0, s"COMPARE column '$name' not found in ${output.map(_.name)}")
    ColRef(i, output(i).dataType)
  }

  private def sideRef(output: Seq[Attribute], ts: TrendsetSpec, side: Int,
                      gmIdxs: Seq[Int]): SideRef =
    SideRef(
      side,
      ts.fixedTerms.map { case (a, v) => (ref(output, a), v) },
      ts.constraint.map {
        case ConstraintTerm(_, Some(v)) => Left(v)
        case ConstraintTerm(a, None)    => Right(ref(output, a))
      },
      gmIdxs.map(i =>
        GmRef(i, ref(output, ts.gms(i).grouping), ref(output, ts.gms(i).measure), ts.gms(i).agg)))

  /** Build both sides' trends from an InternalRow RDD. */
  def trends(rdd: RDD[InternalRow], output: Seq[Attribute],
             spec: CompareSpec): (Seq[TrendRow], Seq[TrendRow]) = {
    val gms1 = spec.comparableGmPairs.map(_._1).distinct
    val gms2 = spec.comparableGmPairs.map(_._2).distinct
    // Identical trendset templates (Q2/Q4-style symmetric comparison): one
    // side's trends serve both roles.
    val singleSided = spec.t1 == spec.t2
    val sidesArr: Array[SideRef] =
      if (singleSided) Array(sideRef(output, spec.t1, 1, (gms1 ++ gms2).distinct))
      else Array(sideRef(output, spec.t1, 1, gms1), sideRef(output, spec.t2, 2, gms2))

    // Keys are flat \u0001-separated strings: far cheaper to serialize in
    // the shuffle than nested tuples, which dominates at high key cardinality.
    val Sep = '\u0001'
    val SepStr = Sep.toString
    val entries = rdd.mapPartitions { it =>
      val acc = new java.util.HashMap[String, Array[Double]]()
      it.foreach { row =>
        var si = 0
        while (si < sidesArr.length) {
          val s = sidesArr(si)
          if (s.fixed.forall { case (c, v) => c.keyOf(row) == v }) {
            val cPart = {
              val sb = new java.lang.StringBuilder()
              s.cCols.foreach { cc =>
                sb.append(Sep)
                cc match {
                  case Left(v)  => sb.append(v)
                  case Right(c) => val k = c.keyOf(row); if (k != null) sb.append(k) else sb.append("\u0000")
                }
              }
              sb.toString
            }
            val gms = s.gms
            var gi = 0
            while (gi < gms.length) {
              val gm = gms(gi)
              val g = gm.g.keyOf(row)
              val m = gm.m.doubleOf(row)
              if (g != null && m != null) {
                val v = m.doubleValue()
                val key = s"${s.side}$Sep${gm.gm}$cPart$Sep$g"
                val st = acc.get(key)
                if (st == null) acc.put(key, Array(v, 1.0, v, v))
                else {
                  st(0) += v; st(1) += 1.0
                  if (v < st(2)) st(2) = v
                  if (v > st(3)) st(3) = v
                }
              }
              gi += 1
            }
          }
          si += 1
        }
      }
      import scala.jdk.CollectionConverters._
      acc.entrySet().iterator().asScala.map(e => (e.getKey, e.getValue))
    }

    val reduced = entries.reduceByKey { (a, b) =>
      Array(a(0) + b(0), a(1) + b(1), math.min(a(2), b(2)), math.max(a(3), b(3)))
    }

    val specB = spec
    val nC1 = spec.t1.constraint.size
    val nC2 = spec.t2.constraint.size
    val perTrend = reduced
      .map { case (key, st) =>
        // limit -1: keep a trailing empty grouping value.
        val parts = key.split(SepStr, -1)
        val side = parts(0).toInt
        val gm = parts(1).toInt
        val nC = if (side == 1 || singleSided) nC1 else nC2
        val c = parts.slice(2, 2 + nC).toList.map(x => if (x == "\u0000") null else x)
        val g = parts(2 + nC)
        val agg = (if (side == 1) specB.t1 else specB.t2).gms(gm).agg
        val v = agg match {
          case AggKind.Sum => st(0)
          case AggKind.Avg => st(0) / st(1)
          case AggKind.Min => st(2)
          case AggKind.Max => st(3)
        }
        ((side, gm, c), (g, v))
      }
      .groupByKey()
      .collect()

    def rowsOf(side: Int): Seq[TrendRow] =
      perTrend.collect { case ((s, gm, c), data) if s == side => TrendRow(gm, c, data.toMap) }.toSeq

    val side1All = rowsOf(1)
    val t1Rows = side1All.filter(r => gms1.contains(r.gm))
    val t2Rows =
      if (singleSided) side1All.filter(r => gms2.contains(r.gm))
      else rowsOf(2)
    (t1Rows, t2Rows)
  }
}

/** DataFrame-level entry to the shared-scan trend builder, for driver-side
  * top-k (`Compare.topK`, the UDF baseline, the benches).
  */
object TrendCollector {
  def collect(df: DataFrame, spec: CompareSpec): (Seq[TrendRow], Seq[TrendRow]) = {
    val (rdd, output) = ReproBridge.internalRdd(df)
    TrendAggregation.trends(rdd, output, spec)
  }
}
