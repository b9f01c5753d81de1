package repro.core

import java.util.BitSet

import org.apache.spark.unsafe.types.UTF8String

/** Data structures of the Φp pruning operator (§5.1): the grouping-value
  * dictionary, per-trend sorted arrays, segment aggregates and bitmaps, and
  * the bound computations of Appendix B.
  *
  * Segments are ranges of the *global* dictionary of a grouping column, so
  * every trend of that column shares segment boundaries; the per-pair matched
  * count per segment is exact (bitmap intersection, or the range width when
  * both trends are dense). See DESIGN.md §5 for the soundness argument.
  */
object TrendModel {

  /** Sturges' formula for the number of segments (§5.1): ⌊1 + log2(n)⌋. */
  def sturges(n: Int): Int = math.max(1, 1 + (math.log(math.max(n, 1)) / math.log(2)).floor.toInt)

  /** Dictionary over a grouping column's values. Ordering is numeric-aware so
    * ordinal groupings (days, weeks) stay contiguous — correctness does not
    * depend on the order, only bound tightness does.
    */
  final class GroupingDict(val values: Array[String]) {
    val index: Map[String, Int] = values.zipWithIndex.toMap
    def size: Int = values.length
  }

  object GroupingDict {
    def build(vals: Iterable[String]): GroupingDict = {
      val distinct = vals.toArray.distinct
      val allNumeric = distinct.forall(v => v.nonEmpty && numericValue(v).isDefined)
      val sorted =
        if (allNumeric) distinct.sortBy(v => numericValue(v).get)
        else distinct.sorted
      new GroupingDict(sorted)
    }
    private def numericValue(s: String): Option[Double] =
      try Some(s.toDouble) catch { case _: NumberFormatException => None }
  }

  /** Shared segment boundaries over a dictionary domain. */
  final class Segmentation(val domain: Int, val numSegments: Int) {
    val width: Int = math.max(1, math.ceil(domain.toDouble / numSegments).toInt)
    val count: Int = math.max(1, math.ceil(domain.toDouble / width).toInt)
    def lo(s: Int): Int = s * width
    def hi(s: Int): Int = math.min(domain, (s + 1) * width)
  }

  /** COUNT/SUM/MIN/MAX of one trend over one segment (§5.1's summary). */
  final case class SegAgg(count: Int, sum: Double, min: Double, max: Double) {
    def avg: Double = if (count == 0) 0.0 else sum / count
  }

  /** A summarized trend: tuples as (dictionary code, value) sorted by code,
    * segment aggregates, and the grouping bitmap.
    */
  final class SegTrend(
      val gm: Int,
      val c: Seq[String],
      val codes: Array[Int],
      val values: Array[Double],
      val segs: Array[SegAgg],
      val bitmap: BitSet,
      val seg: Segmentation) {
    val n: Int = codes.length
    /** Dense = one tuple for every dictionary value (the common OLAP case). */
    val dense: Boolean = n == seg.domain
    /** A NaN or infinite value: this trend's segment bounds are unsound. */
    val hasNonFinite: Boolean = values.exists(v => !java.lang.Double.isFinite(v))
    /** The constraint values as [[PairRule.compare]] orders them. */
    lazy val key: Array[UTF8String] = c.iterator.map(UTF8String.fromString).toArray
  }

  def buildTrend(row: TrendRow, dict: GroupingDict, seg: Segmentation): SegTrend = {
    val pairs = row.data.toArray.map { case (g, v) => (dict.index(g), v) }.sortBy(_._1)
    val codes = pairs.map(_._1)
    val values = pairs.map(_._2)
    val bitmap = new BitSet(dict.size)
    codes.foreach(bitmap.set)
    val segs = Array.tabulate(seg.count) { s =>
      var i = lowerBoundArr(codes, seg.lo(s))
      var cnt = 0; var sum = 0.0
      var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
      val hi = seg.hi(s)
      while (i < codes.length && codes(i) < hi) {
        cnt += 1; sum += values(i)
        if (values(i) < mn) mn = values(i)
        if (values(i) > mx) mx = values(i)
        i += 1
      }
      if (cnt == 0) SegAgg(0, 0.0, 0.0, 0.0) else SegAgg(cnt, sum, mn, mx)
    }
    new SegTrend(row.gm, row.c, codes, values, segs, bitmap, seg)
  }

  /** First index of sorted `codes` at or after dictionary code `code`. */
  def lowerBoundArr(codes: Array[Int], code: Int): Int = {
    var lo = 0; var hi = codes.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (codes(mid) < code) lo = mid + 1 else hi = mid }
    lo
  }

  /** Bounds on one segment's contribution to SUM(DIFF(p)) for a trend pair,
    * plus the exact matched-tuple count (Appendix B).
    */
  final case class SegBound(lower: Double, upper: Double, matched: Int)

  def segBound(t1: SegTrend, t2: SegTrend, s: Int, p: Int): SegBound = {
    val a = t1.segs(s); val b = t2.segs(s)
    if (a.count == 0 || b.count == 0) return SegBound(0.0, 0.0, 0)
    val matched =
      if (t1.dense && t2.dense) t1.seg.hi(s) - t1.seg.lo(s)
      else {
        val slice = t1.bitmap.get(t1.seg.lo(s), t1.seg.hi(s))
        slice.and(t2.bitmap.get(t2.seg.lo(s), t2.seg.hi(s)))
        slice.cardinality()
      }
    if (matched == 0) return SegBound(0.0, 0.0, 0)
    val maxDiff = math.max(math.abs(a.max - b.min), math.abs(b.max - a.min))
    val upper = matched * Scorer.powAbs(maxDiff, p)
    // Theorem 1 lower bound is valid only when the averaged tuples are exactly
    // the matched tuples (both segments fully matched); otherwise fall back to
    // the always-sound 0.
    val lower =
      if (matched == a.count && matched == b.count)
        matched * Scorer.powAbs(a.avg - b.avg, p)
      else 0.0
    SegBound(lower, upper, matched)
  }

  /** Exact score of a pair under `scorer` over the dictionary codes in
    * [lo, hi): the whole pair by default (MIN/MAX scorers, the exhaustive
    * stages), one segment's `lo(s)`/`hi(s)` for Φp's refinement. One
    * two-pointer merge over the sorted codes. Returns (score, matched,
    * tuples touched); the score is None when no grouping values match.
    */
  def exactScore(t1: SegTrend, t2: SegTrend, scorer: Scorer,
                 lo: Int = 0, hi: Int = Int.MaxValue): (Option[Double], Int, Int) = {
    // A whole pair skips the searches: they slowed exhaustive scoring by ~10%.
    var i = if (lo == 0) 0 else lowerBoundArr(t1.codes, lo)
    val iEnd = if (hi == Int.MaxValue) t1.n else lowerBoundArr(t1.codes, hi)
    var j = if (lo == 0) 0 else lowerBoundArr(t2.codes, lo)
    val jEnd = if (hi == Int.MaxValue) t2.n else lowerBoundArr(t2.codes, hi)
    var n = 0
    var acc = 0.0
    var touched = 0
    while (i < iEnd && j < jEnd) {
      touched += 1
      val ci = t1.codes(i); val cj = t2.codes(j)
      if (ci == cj) {
        val d = scorer.diff(t1.values(i), t2.values(j))
        n += 1
        scorer.agg match {
          case AggKind.Sum | AggKind.Avg => acc += d
          // In the order Spark's MIN/MAX use: NaN above every number.
          case AggKind.Min => if (n == 1 || java.lang.Double.compare(d, acc) < 0) acc = d
          case AggKind.Max => if (n == 1 || java.lang.Double.compare(d, acc) > 0) acc = d
        }
        i += 1; j += 1
      } else if (ci < cj) i += 1
      else j += 1
    }
    val score =
      if (n == 0) None
      else Some(if (scorer.agg == AggKind.Avg) acc / n else acc)
    (score, n, touched)
  }
}
