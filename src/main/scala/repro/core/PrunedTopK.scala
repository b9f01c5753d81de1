package repro.core

import scala.collection.mutable
import TrendModel._

/** The DIFF-specialized top-k operator Φp (§5, Algorithm 2): summarize
  * ([[TrendBuilder]]) → bound → prune, then priority-queue early termination
  * that refines one segment at a time, switching to whichever pair currently
  * has the best optimistic bound.
  *
  * Supports both search directions: `ascending = true` finds the k most
  * similar pairs (smallest scores; prune when a pair's lower bound exceeds
  * the k-th smallest upper bound), `false` the k most different.
  *
  * Bounds-based pruning applies to SUM/AVG scorers (the aggregated distance
  * functions of §2.2.3); MIN/MAX scorers are computed exactly.
  */
object PrunedTopK {

  /** Knobs exposed for the §8.3 sweeps and the §8.1 ablation.
    *
    * @param numSegments          override Sturges' choice (Figure 11 sweep;
    *                             read by the trend builder)
    * @param usePruning           disable summarize→bound→prune (ablation)
    * @param useEarlyTermination  disable the PQ segment-at-a-time refinement
    *                             (ablation: survivors are scored exactly)
    */
  final case class Config(
      numSegments: Option[Int] = None,
      usePruning: Boolean = true,
      useEarlyTermination: Boolean = true)

  /** Observability counters — drive the ablation/bench tables and the
    * memory-overhead estimate (§8.6; each summary aggregate is 4 numbers).
    */
  final case class PruneStats(
      pairsTotal: Long,
      pairsPrunedInitial: Long,
      pairsPrunedSearch: Long,
      segmentsProcessed: Long,
      tuplesCompared: Long,
      trendCount: Long,
      summaryDoubles: Long) {
    def pairsPruned: Long = pairsPrunedInitial + pairsPrunedSearch
    def summaryBytes: Long = summaryDoubles * 8
  }

  /** The top k and the counters; `boundNanos` is the time [[search]] took
    * to enumerate, bound and initially prune the pairs (0 without pruning).
    */
  final case class Result(pairs: Seq[ScoredPair], stats: PruneStats, boundNanos: Long)

  /** Top-k selection over both sides' collected [[TrendRow]]s. Callers pass
    * a symmetric spec's trends once per side, so side 2's rows of a member
    * that side 1 has are not built again.
    */
  def run(spec: CompareSpec, trends1: Seq[TrendRow], trends2: Seq[TrendRow],
          topK: TopK, cfg: Config = Config()): Result = {
    val b = new TrendBuilder(spec, cfg.numSegments)
    def tagged(ts: TrendsetSpec, rows: Seq[TrendRow]) =
      rows.map(r => (b.member(ts.constraint, ts.gms(r.gm)), r))
    val (rows1, rows2) = (tagged(spec.t1, trends1), tagged(spec.t2, trends2))
    val fed = rows1.map(_._1).toSet
    for ((id, r) <- rows1 ++ rows2.filterNot(x => fed(x._1)); (g, v) <- r.data) b.add(id, r.c, g, v)
    val (side1, side2) = b.result()
    search(spec, side1, side2, topK, cfg)
  }

  /** Top-k selection over both sides' summarized trends, which
    * [[TrendBuilder]] built with `cfg.numSegments`: bound → prune → search.
    */
  def search(spec: CompareSpec, side1: Seq[SegTrend], side2: Seq[SegTrend],
             topK: TopK, cfg: Config = Config()): Result = {
    val t0 = System.nanoTime()
    val trendCount = (side1.size + side2.size).toLong
    val summaryDoubles = (side1 ++ side2).map(_.segs.length.toLong * 4).sum

    // --- Enumerate candidate pairs ---
    val by1 = side1.groupBy(_.gm)
    val by2 = side2.groupBy(_.gm)
    val candidates = mutable.ArrayBuffer.empty[(SegTrend, SegTrend)]
    spec.comparableGmPairs.foreach { case (i, j) =>
      for (t1 <- by1.getOrElse(i, Nil); t2 <- by2.getOrElse(j, Nil) if PairRule.keeps(spec, t1, t2))
        candidates += ((t1, t2))
    }

    var tuplesCompared = 0L
    var segmentsProcessed = 0L

    /** Scores best first: ascending or descending in the total order of
      * `java.lang.Double.compare`, which puts NaN above +∞ as Spark's ORDER BY
      * does, so a NaN score ranks last ASC and first DESC.
      */
    def byScore(a: Double, b: Double): Int =
      if (topK.ascending) java.lang.Double.compare(a, b) else java.lang.Double.compare(b, a)

    /** Φp's one rank of pairs: by score, ties broken by the two constraint
      * tuples in [[PairRule.compare]]'s order, then the two (g, m)s. The
      * result order, and the priority queue's order over optimistic bounds,
      * so early termination returns the pairs tied at the k-th score that
      * the other stages return.
      */
    def rank(s: Double, a1: SegTrend, a2: SegTrend, t: Double, b1: SegTrend, b2: SegTrend): Int = {
      var c = byScore(s, t)
      if (c == 0) c = PairRule.compare(a1.key, b1.key)
      if (c == 0) c = PairRule.compare(a2.key, b2.key)
      if (c == 0) c = Integer.compare(a1.gm, b1.gm)
      if (c == 0) c = Integer.compare(a2.gm, b2.gm)
      c
    }

    /** The k best pairs in [[rank]]'s order. */
    def sortSelect(all: Seq[(SegTrend, SegTrend, Double)]): Seq[ScoredPair] =
      all.sorted[(SegTrend, SegTrend, Double)]((a, b) => rank(a._3, a._1, a._2, b._3, b._1, b._2))
        .take(topK.k).map { case (t1, t2, s) => ScoredPair(t1.c, t2.c, t1.gm, t2.gm, s) }

    val boundsSupported =
      spec.scorer.agg == AggKind.Sum || spec.scorer.agg == AggKind.Avg

    if (!cfg.usePruning || !boundsSupported) {
      // Exhaustive trendwise scoring (ablation stage / unsupported scorer).
      val scored = candidates.flatMap { case (t1, t2) =>
        val (s, _, touched) = exactScore(t1, t2, spec.scorer)
        tuplesCompared += touched
        s.map((t1, t2, _))
      }
      // Only pairs sharing a grouping value are scored, as the pruning branches count.
      return Result(sortSelect(scored.toSeq),
        PruneStats(scored.size, 0, 0, 0, tuplesCompared, trendCount, summaryDoubles), 0L)
    }

    // --- Bound: each pair's segment bounds summed once; optimistic = the
    // best score a pair can still reach, guarantee = its worst, both ranked
    // by `byScore`. A segment's bound is recomputed when it is refined. ---
    val p = spec.scorer.p
    val segScorer = Scorer(AggKind.Sum, p)
    final class PairState(val t1: SegTrend, val t2: SegTrend) {
      val seg = t1.seg
      var totalMatched = 0; var remLower = 0.0; var remUpper = 0.0
      var exactSum = 0.0
      /** The next segment to refine: always one with a matched tuple. */
      var nextSeg = seg.count
      for (s <- 0 until seg.count) {
        val b = segBound(t1, t2, s, p)
        if (b.matched > 0 && nextSeg == seg.count) nextSeg = s
        totalMatched += b.matched
        remLower += b.lower
        remUpper += b.upper
      }
      def done: Boolean = nextSeg >= seg.count
      private def toScore(sum: Double): Double =
        if (spec.scorer.agg == AggKind.Avg) sum / totalMatched else sum
      def lowerScore: Double = toScore(exactSum + remLower)
      def upperScore: Double = toScore(exactSum + remUpper)
      def optimistic: Double = if (topK.ascending) lowerScore else upperScore
      def guarantee: Double  = if (topK.ascending) upperScore else lowerScore
      def exactScoreNow: Double = { assert(done); toScore(exactSum) }
      def processOneSegment(): Unit = {
        val b = segBound(t1, t2, nextSeg, p)
        val (sum, _, touched) = exactScore(t1, t2, segScorer, seg.lo(nextSeg), seg.hi(nextSeg))
        tuplesCompared += touched
        segmentsProcessed += 1
        sum.foreach(exactSum += _)
        remLower -= b.lower
        remUpper -= b.upper
        nextSeg += 1
        // Skip zero-match segments outright — they contribute nothing. Once
        // none is left the residues are exactly 0: repeated subtraction
        // leaves rounding noise that could put `lowerScore` above
        // `upperScore`, and a finished pair setting the k-th threshold would
        // then prune itself.
        while (!done && segBound(t1, t2, nextSeg, p).matched == 0) nextSeg += 1
        if (done) { remLower = 0.0; remUpper = 0.0 }
      }
      // A NaN or infinite value makes the segment bounds unsound (NaN fails
      // every comparison; ∞ − ∞ is NaN), so a pair holding one is scored
      // exactly up front.
      if (t1.hasNonFinite || t2.hasNonFinite) while (!done) processOneSegment()
    }

    val pairs = candidates.map { case (t1, t2) => new PairState(t1, t2) }
      .filter(_.totalMatched > 0)
    val pairsTotal = pairs.size.toLong

    // Pruning threshold T: the k-th best initial guarantee over distinct
    // pairs. It is not raised during the search: the priority queue alone
    // ends it, and T only keeps hopeless pairs (optimistic ranked after T) out
    // of the queue.
    val threshold =
      if (pairs.size < topK.k) None
      else Some(pairs.map(_.guarantee).sorted[Double](byScore(_, _)).apply(topK.k - 1))
    // A pair is pruned only when its optimistic bound is worse than T by more
    // than a relative slack of 1e-9. Bounds and exact scores are sums added
    // in different orders, so a pair's computed bound can pass its own
    // computed score, which may set T: an n-term sum errs by up to
    // n·ε·Σ|terms|. Every term is a DIFF ≥ 0, so Σ|terms| is the sum itself,
    // and n·ε stays below 1e-9 up to about 9·10^6 grouping values. Scores are
    // ≥ 0, so scaling T loosens it, and leaves T = +∞ as it is.
    val bar = threshold.map(_ * (if (topK.ascending) 1 + 1e-9 else 1 - 1e-9))
    def alive(st: PairState): Boolean = bar.forall(byScore(st.optimistic, _) <= 0)
    val initiallyAlive = pairs.filter(alive)
    val pairsPrunedInitial = pairsTotal - initiallyAlive.size
    val boundNanos = System.nanoTime() - t0

    if (!cfg.useEarlyTermination) {
      // Prune once, then score the survivors exactly.
      val scored = initiallyAlive.map { st =>
        while (!st.done) st.processOneSegment()
        (st.t1, st.t2, st.exactScoreNow)
      }
      return Result(sortSelect(scored.toSeq),
        PruneStats(pairsTotal, pairsPrunedInitial, 0, segmentsProcessed,
          tuplesCompared, trendCount, summaryDoubles), boundNanos)
    }

    // --- Early termination (Algorithm 2): refine the most promising pair ---
    // Dequeues the best pair in `rank`'s order of optimistic bounds.
    val pq = mutable.PriorityQueue.empty[PairState]((a, b) =>
      rank(b.optimistic, b.t1, b.t2, a.optimistic, a.t1, a.t2))
    initiallyAlive.foreach(pq.enqueue(_))
    val results = mutable.ArrayBuffer.empty[(SegTrend, SegTrend, Double)]
    var pairsPrunedSearch = 0L

    while (results.size < topK.k && pq.nonEmpty) {
      val top = pq.dequeue()
      if (top.done) {
        results += ((top.t1, top.t2, top.exactScoreNow))
      } else {
        top.processOneSegment()
        if (alive(top)) pq.enqueue(top)
        else pairsPrunedSearch += 1
      }
    }

    Result(sortSelect(results.toSeq),
      PruneStats(pairsTotal, pairsPrunedInitial, pairsPrunedSearch,
        segmentsProcessed, tuplesCompared, trendCount, summaryDoubles), boundNanos)
  }
}
