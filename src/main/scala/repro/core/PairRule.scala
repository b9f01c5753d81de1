package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{lit, struct}
import org.apache.spark.unsafe.types.UTF8String
import TrendModel.SegTrend

/** Which trend pairs of one comparable (g, m) pair are compared
  * (Definition 5, Observation 1 and the basic plan's `R_i.c != R_j.c`), per
  * pair mode, in SQL's three-valued logic — a pair is compared only when its
  * condition is true:
  *
  *  - SymmetricConstraint: every constraint value of both trends IS NOT NULL
  *    and `(c_1) < (c_2)` tuple-wise ([[compare]]), so each unordered pair is
  *    compared once;
  *  - CrossConstraint with the same attributes on both sides:
  *    `NOT (c_1 = c_2)`, true when some attribute pair is non-NULL and
  *    different;
  *  - otherwise: every pair.
  *
  * [[column]] renders it for the basic plan's join, [[keeps]] for Φp's
  * candidate enumeration. [[OracleRef]] writes it once more, in DuckDB SQL,
  * as the independent reference.
  */
object PairRule {

  /** The rule over two trend relations (columns as in [[BasicExec]]'s `trendRel`). */
  def column(spec: CompareSpec, left: DataFrame, right: DataFrame): Column = {
    val l = spec.t1.attrs.map(a => left(s"${a}_1"))
    val r = spec.t2.attrs.map(a => right(s"${a}_2"))
    // Spark orders structs field by field; the field names must agree.
    def tuple(cs: Seq[Column]): Column = struct(cs.zipWithIndex.map { case (c, i) => c.as(s"_$i") }: _*)
    spec.pairMode match {
      case PairMode.SymmetricConstraint =>
        (l ++ r).map(_.isNotNull).reduce(_ && _) && tuple(l) < tuple(r)
      case PairMode.CrossConstraint if spec.excludeIdenticalConstraint =>
        !l.lazyZip(r).map(_ === _).reduce(_ && _)
      case _ => lit(true)
    }
  }

  /** The rule over two summarized trends. */
  def keeps(spec: CompareSpec, t1: SegTrend, t2: SegTrend): Boolean = spec.pairMode match {
    case PairMode.SymmetricConstraint =>
      !t1.c.contains(null) && !t2.c.contains(null) && compare(t1.key, t2.key) < 0
    case PairMode.CrossConstraint if spec.excludeIdenticalConstraint =>
      t1.c.lazyZip(t2.c).exists((a, b) => a != null && b != null && a != b)
    case _ => true
  }

  /** Tuple order on the constraint values of one template: attribute by
    * attribute, each in UTF-8 byte order as Spark and DuckDB order strings,
    * NULL first.
    */
  def compare(a: Array[UTF8String], b: Array[UTF8String]): Int = {
    var i = 0; var c = 0
    while (c == 0 && i < a.length) {
      c = if (a(i) == null || b(i) == null) java.lang.Boolean.compare(a(i) != null, b(i) != null)
          else a(i).compareTo(b(i))
      i += 1
    }
    c
  }
}
