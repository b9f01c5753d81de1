package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TrendModel._

/** Unit + property tests for the Φp summarization layer (§5.1, Appendix B):
  * dictionaries, segment aggregates, and soundness/tightness of the bounds.
  */
class TrendModelSpec extends AnyFunSuite {

  private def mkTrend(gm: Int, c: String, data: Map[String, Double],
                      dict: GroupingDict, seg: Segmentation): SegTrend =
    buildTrend(TrendRow(gm, Seq(c), data), dict, seg)

  private def dictAndSeg(keys: Seq[String], numSegments: Int): (GroupingDict, Segmentation) = {
    val d = GroupingDict.build(keys)
    (d, new Segmentation(d.size, numSegments))
  }

  test("Sturges formula matches the paper: ⌊1 + log2(n)⌋") {
    assert(sturges(1) == 1)
    assert(sturges(2) == 2)
    assert(sturges(16) == 5)
    assert(sturges(366) == 9)
    assert(sturges(1000) == 10)
  }

  test("dictionary orders numeric grouping values numerically, not lexically") {
    val d = GroupingDict.build(Seq("10", "2", "1", "30"))
    assert(d.values.toSeq == Seq("1", "2", "10", "30"))
  }

  test("dictionary falls back to lexicographic order for non-numeric values") {
    val d = GroupingDict.build(Seq("b", "a", "c"))
    assert(d.values.toSeq == Seq("a", "b", "c"))
  }

  test("segmentation covers the domain without overlap") {
    for (domain <- Seq(1, 7, 16, 100, 366); l <- Seq(1, 3, 9)) {
      val s = new Segmentation(domain, l)
      assert(s.lo(0) == 0)
      assert(s.hi(s.count - 1) == domain)
      for (i <- 0 until s.count - 1) assert(s.hi(i) == s.lo(i + 1))
    }
  }

  test("segment aggregates: count/sum/min/max per segment") {
    val (d, s) = dictAndSeg((1 to 8).map(_.toString), 2)
    val t = mkTrend(0, "c", (1 to 8).map(i => i.toString -> i.toDouble).toMap, d, s)
    assert(t.segs.length == 2)
    assert(t.segs(0) == SegAgg(4, 10.0, 1.0, 4.0))
    assert(t.segs(1) == SegAgg(4, 26.0, 5.0, 8.0))
    assert(t.dense)
  }

  test("sparse trend: bitmap marks present groupings; dense flag off") {
    val (d, s) = dictAndSeg((1 to 8).map(_.toString), 2)
    val t = mkTrend(0, "c", Map("1" -> 1.0, "5" -> 5.0), d, s)
    assert(!t.dense)
    assert(t.bitmap.cardinality() == 2)
    assert(t.segs(0).count == 1 && t.segs(1).count == 1)
  }

  // Figure 8's worked example: 16-tuple trends; a single summary gives bounds
  // ≈[1700, 6400] around the exact 1717, and two segments tighten the upper
  // bound substantially. The OCR'd figure digits are unreliable, so we assert
  // the *formulas* (Appendix B) and the tightening behaviour.
  private val fig8v1 = Seq(18, 18, 14, 18, 18, 16, 14, 14, 10, 14, 12, 10, 13, 13, 14, 14).map(_.toDouble)
  private val fig8v2 = Seq(26, 23, 23, 29, 30, 28, 24, 25, 27, 24, 24, 20, 21, 25, 20, 22).map(_.toDouble)

  test("Figure 8 shape: single-summary bounds follow the Appendix-B formulas") {
    val keys = (1 to 16).map(i => f"$i%02d")
    val (d, s) = dictAndSeg(keys, 1)
    val t1 = mkTrend(0, "a", keys.zip(fig8v1).toMap, d, s)
    val t2 = mkTrend(0, "b", keys.zip(fig8v2).toMap, d, s)
    val b = segBound(t1, t2, 0, p = 2)
    assert(b.matched == 16)
    val expLower = 16 * math.pow(fig8v1.sum / 16 - fig8v2.sum / 16, 2)
    val expUpper = 16 * math.pow(math.max(math.abs(fig8v1.max - fig8v2.min),
      math.abs(fig8v2.max - fig8v1.min)), 2)
    assert(math.abs(b.lower - expLower) < 1e-9)
    assert(b.upper == expUpper)
    assert(b.upper == 6400.0) // max(|18-20|, |30-10|)^2 * 16, as in the paper
    val (exact, m, _) = exactScore(t1, t2, Scorer(AggKind.Sum, 2), s.lo(0), s.hi(0))
    assert(m == 16)
    val expExact = fig8v1.zip(fig8v2).map { case (a, x) => math.pow(a - x, 2) }.sum
    assert(math.abs(exact.get - expExact) < 1e-9)
    assert(b.lower <= exact.get && exact.get <= b.upper)
  }

  test("Figure 8 shape: two-segment summaries tighten the bounds") {
    val keys = (1 to 16).map(i => f"$i%02d")
    val (d1, s1) = dictAndSeg(keys, 1)
    val (d2, s2) = dictAndSeg(keys, 2)
    val single = segBound(mkTrend(0, "a", keys.zip(fig8v1).toMap, d1, s1),
      mkTrend(0, "b", keys.zip(fig8v2).toMap, d1, s1), 0, 2)
    val ta = mkTrend(0, "a", keys.zip(fig8v1).toMap, d2, s2)
    val tb = mkTrend(0, "b", keys.zip(fig8v2).toMap, d2, s2)
    val b0 = segBound(ta, tb, 0, 2); val b1 = segBound(ta, tb, 1, 2)
    val exact = fig8v1.zip(fig8v2).map { case (a, x) => math.pow(a - x, 2) }.sum
    assert(b0.upper + b1.upper < single.upper) // tighter upper, as in Fig. 8(c)
    assert(b0.lower + b1.lower >= single.lower - 1e-9)
    assert(b0.lower + b1.lower <= exact && exact <= b0.upper + b1.upper)
  }

  test("property: bounds always contain the exact segment score (dense)") {
    val rnd = new scala.util.Random(7)
    for (trial <- 1 to 50; p <- Seq(1, 2)) {
      val n = 8 + rnd.nextInt(60)
      val keys = (1 to n).map(_.toString)
      val (d, s) = dictAndSeg(keys, sturges(n))
      val t1 = mkTrend(0, "a", keys.map(k => k -> (rnd.nextDouble() * 100 - 50)).toMap, d, s)
      val t2 = mkTrend(0, "b", keys.map(k => k -> (rnd.nextDouble() * 100 - 50)).toMap, d, s)
      var lower = 0.0; var upper = 0.0; var exact = 0.0
      for (i <- 0 until s.count) {
        val b = segBound(t1, t2, i, p)
        val (score, m, _) = exactScore(t1, t2, Scorer(AggKind.Sum, p), s.lo(i), s.hi(i))
        val e = score.get
        assert(b.matched == m, s"trial $trial seg $i matched")
        assert(b.lower <= e + 1e-9 && e <= b.upper + 1e-9, s"trial $trial seg $i bounds")
        lower += b.lower; upper += b.upper; exact += e
      }
      assert(lower <= exact + 1e-9 && exact <= upper + 1e-9)
    }
  }

  test("property: bounds remain sound for sparse, partially-overlapping trends") {
    val rnd = new scala.util.Random(13)
    for (trial <- 1 to 50) {
      val keys = (1 to 40).map(_.toString)
      val (d, s) = dictAndSeg(keys, 4)
      def sparse() =
        keys.filter(_ => rnd.nextDouble() < 0.7).map(k => k -> (rnd.nextDouble() * 20)).toMap
      val m1 = sparse(); val m2 = sparse()
      if (m1.nonEmpty && m2.nonEmpty) {
        val t1 = mkTrend(0, "a", m1, d, s)
        val t2 = mkTrend(0, "b", m2, d, s)
        for (i <- 0 until s.count) {
          val b = segBound(t1, t2, i, 2)
          val (score, m, _) = exactScore(t1, t2, Scorer(AggKind.Sum, 2), s.lo(i), s.hi(i))
          val e = score.getOrElse(0.0)
          assert(b.matched == m, s"trial $trial seg $i matched")
          assert(b.lower <= e + 1e-9 && e <= b.upper + 1e-9, s"trial $trial seg $i bounds")
        }
      }
    }
  }

  test("exactScore matches the sum of its per-segment contributions for SUM") {
    val rnd = new scala.util.Random(23)
    val keys = (1 to 32).map(_.toString)
    val (d, s) = dictAndSeg(keys, 4)
    val t1 = mkTrend(0, "a", keys.map(k => k -> rnd.nextDouble()).toMap, d, s)
    val t2 = mkTrend(0, "b", keys.map(k => k -> rnd.nextDouble()).toMap, d, s)
    val (full, _, _) = exactScore(t1, t2, Scorer(AggKind.Sum, 2))
    val parts = (0 until s.count)
      .map(i => exactScore(t1, t2, Scorer(AggKind.Sum, 2), s.lo(i), s.hi(i))._1.get).sum
    assert(math.abs(full.get - parts) < 1e-9)
  }

  test("exactScore: AVG divides by matched count; MIN/MAX take extremes") {
    val keys = Seq("1", "2", "3")
    val (d, s) = dictAndSeg(keys, 1)
    val t1 = mkTrend(0, "a", Map("1" -> 1.0, "2" -> 2.0, "3" -> 3.0), d, s)
    val t2 = mkTrend(0, "b", Map("1" -> 2.0, "2" -> 4.0, "3" -> 6.0), d, s)
    assert(exactScore(t1, t2, Scorer(AggKind.Sum, 1))._1.contains(6.0))
    assert(exactScore(t1, t2, Scorer(AggKind.Avg, 1))._1.contains(2.0))
    assert(exactScore(t1, t2, Scorer(AggKind.Min, 1))._1.contains(1.0))
    assert(exactScore(t1, t2, Scorer(AggKind.Max, 1))._1.contains(3.0))
  }

  test("exactScore is None when no grouping values match") {
    val keys = Seq("1", "2", "3", "4")
    val (d, s) = dictAndSeg(keys, 2)
    val t1 = mkTrend(0, "a", Map("1" -> 1.0, "2" -> 2.0), d, s)
    val t2 = mkTrend(0, "b", Map("3" -> 1.0, "4" -> 2.0), d, s)
    assert(exactScore(t1, t2, Scorer(AggKind.Sum, 2))._1.isEmpty)
  }

  test("lowerBound binary search finds the first tuple at or after a code") {
    val keys = (1 to 10).map(_.toString)
    val (d, s) = dictAndSeg(keys, 2)
    val t = mkTrend(0, "a", Map("2" -> 1.0, "5" -> 2.0, "9" -> 3.0), d, s)
    assert(lowerBoundArr(t.codes, 0) == 0)
    assert(lowerBoundArr(t.codes, d.index("5")) == 1)
    assert(lowerBoundArr(t.codes, d.index("9") + 1) == 3)
  }
}
