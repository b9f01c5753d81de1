package repro.core

import java.util.BitSet

import scala.collection.mutable

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
      // Each value is parsed once, up to the first one that is no number.
      val nums = distinct.iterator.map(v => if (v.isEmpty) None else numericValue(v))
        .takeWhile(_.isDefined).map(_.get).toArray
      val sorted =
        if (nums.length == distinct.length) distinct.zip(nums).sortBy(_._2).map(_._1)
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
    * segment aggregates, and the grouping bitmap. `gm` indexes its side's
    * (g, m)s; the two sides of one trend share everything else.
    */
  final class SegTrend(
      val gm: Int,
      val c: Seq[String],
      val codes: Array[Int],
      val values: Array[Double],
      val segs: Array[SegAgg],
      val bitmap: BitSet,
      val seg: Segmentation,
      val dict: GroupingDict) {
    val n: Int = codes.length
    /** Dense = one tuple for every dictionary value (the common OLAP case). */
    val dense: Boolean = n == seg.domain
    /** A NaN or infinite value: this trend's segment bounds are unsound. */
    val hasNonFinite: Boolean = values.exists(v => !java.lang.Double.isFinite(v))
    /** The constraint values as [[PairRule.compare]] orders them. */
    lazy val key: Array[UTF8String] = c.iterator.map(UTF8String.fromString).toArray
    def withGm(i: Int): SegTrend =
      if (i == gm) this else new SegTrend(i, c, codes, values, segs, bitmap, seg, dict)
  }

  /** Φp's one trend builder (§5.1): trend points in, both sides' summarized
    * trends out. A point is one value of trend `c` of a [[member]] (constraint
    * template, (g, m)) at grouping value `g`, at most one per value. Each
    * grouping column gets one dictionary, over exactly the values that carry
    * a point, and one [[Segmentation]] (`numSegments`, or Sturges'). Each
    * trend is summarized once: the sides of a symmetric spec share theirs.
    */
  final class TrendBuilder(spec: CompareSpec, numSegments: Option[Int]) {
    private val groupings = spec.groupingColumns
    private val members = (for (t <- Seq(spec.t1.constraint, spec.t2.constraint).distinct;
                                gm <- (spec.t1.gms ++ spec.t2.gms).distinct) yield (t, gm)).toArray
    private val column = members.map(m => groupings.indexOf(m._2.grouping))
    /** Per grouping column: value → its code in first-seen order. */
    private val seen = groupings.map(_ => mutable.LinkedHashMap.empty[String, Int]).toArray
    /** Per member: constraint values → that trend's points. */
    private val trends = members.map(_ => mutable.LinkedHashMap.empty[Seq[String], Points])

    def member(template: Seq[ConstraintTerm], gm: GroupingMeasure): Int =
      members.indexOf((template, gm)).ensuring(_ >= 0, s"($template, $gm) is not in $spec")

    def add(member: Int, c: Seq[String], g: String, v: Double): Unit = {
      val codes = seen(column(member))
      trends(member).getOrElseUpdate(c, new Points).add(codes.getOrElseUpdate(g, codes.size), v)
    }

    def result(): (Seq[SegTrend], Seq[SegTrend]) = {
      val dicts = seen.map(s => GroupingDict.build(s.keys))
      val recode = dicts.lazyZip(seen).map((d, s) => s.keysIterator.map(d.index).toArray)
      val segs = dicts.map(d => new Segmentation(d.size, numSegments.getOrElse(sturges(d.size))))
      val summarized = mutable.HashMap.empty[Int, Seq[SegTrend]]
      def side(ts: TrendsetSpec, used: Seq[Int]): Seq[SegTrend] = used.flatMap { i =>
        val m = member(ts.constraint, ts.gms(i)); val col = column(m)
        summarized.getOrElseUpdate(m, trends(m).toSeq.map { case (c, ps) =>
          ps.summarize(i, c, recode(col), dicts(col), segs(col))
        }).map(_.withGm(i))
      }
      (side(spec.t1, spec.comparableGmPairs.map(_._1).distinct),
        side(spec.t2, spec.comparableGmPairs.map(_._2).distinct))
    }
  }

  /** One trend's points in arrival order, coded in first-seen order. */
  private final class Points {
    private val firstSeen = new mutable.ArrayBuilder.ofInt
    private val arrived = new mutable.ArrayBuilder.ofDouble
    def add(code: Int, v: Double): Unit = { firstSeen += code; arrived += v }

    /** The points sorted by dictionary code (`recode` of the first-seen
      * one), with segment aggregates and bitmap.
      */
    def summarize(gm: Int, c: Seq[String], recode: Array[Int],
                  dict: GroupingDict, seg: Segmentation): SegTrend = {
      val (first, vs) = (firstSeen.result(), arrived.result())
      val order = Array.tabulate(first.length)(k => recode(first(k)).toLong << 32 | k)
      java.util.Arrays.sort(order)
      val codes = order.map(o => (o >>> 32).toInt)
      val values = order.map(o => vs(o.toInt))
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
      new SegTrend(gm, c, codes, values, segs, bitmap, seg, dict)
    }
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
