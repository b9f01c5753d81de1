package repro.core

import repro.catalyst.TrendCollector
import repro.flight.FlightData
import repro.workload.Workloads
import repro.{SparkSpec, TestData, TestUtil}

/** Correctness of the Φp pruning operator (§5): top-k selection must agree
  * with exhaustive scoring for every shape, k, direction and config, and the
  * pruning machinery must actually prune without ever dropping a true top-k
  * pair.
  */
class PrunedTopKSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()

  /** Exhaustive reference: brute-force score every pair from the collected
    * trends (pruning off), then sort/take k.
    */
  private def bruteForce(spec: CompareSpec, k: TopK): Seq[ScoredPair] = {
    val (t1, t2) = TrendCollector.collect(sales, spec)
    PrunedTopK.run(spec, t1, t2, k,
      PrunedTopK.Config(usePruning = false)).pairs
  }

  private def pruned(spec: CompareSpec, k: TopK,
                     cfg: PrunedTopK.Config = PrunedTopK.Config()): PrunedTopK.Result = {
    val (t1, t2) = TrendCollector.collect(sales, spec)
    PrunedTopK.run(spec, t1, t2, k, cfg)
  }

  private val shapes = Seq(
    "symCities" -> Specs.symCities(), "symCitiesMulti" -> Specs.symCitiesMulti(),
    "ex1a" -> Specs.ex1a(), "asiaVsEurope" -> Specs.asiaVsEurope(),
    "crossMeasure" -> Specs.crossMeasure())

  for ((name, spec) <- shapes; k <- Seq(1, 3, 5); asc <- Seq(true, false)) {
    test(s"pruned top-$k (${if (asc) "ASC" else "DESC"}) == brute force: $name") {
      val topK = TopK(k, asc)
      val exact = bruteForce(spec, topK)
      val res = pruned(spec, topK)
      assert(TestUtil.scoreBag(res.pairs) == TestUtil.scoreBag(exact),
        s"pruned=${res.pairs}\nexact=$exact")
    }
  }

  for ((name, spec) <- shapes) {
    test(s"early termination off still matches brute force: $name") {
      val topK = TopK(3, ascending = true)
      val res = pruned(spec, topK, PrunedTopK.Config(useEarlyTermination = false))
      assert(TestUtil.scoreBag(res.pairs) == TestUtil.scoreBag(bruteForce(spec, topK)))
    }
    test(s"segment-count override keeps correctness: $name") {
      for (l <- Seq(1, 2, 8)) {
        val topK = TopK(2, ascending = false)
        val res = pruned(spec, topK, PrunedTopK.Config(numSegments = Some(l)))
        assert(TestUtil.scoreBag(res.pairs) == TestUtil.scoreBag(bruteForce(spec, topK)),
          s"numSegments=$l")
      }
    }
  }

  for (agg <- Seq(AggKind.Avg, AggKind.Sum); p <- Seq(1, 2)) {
    test(s"pruning correct under scorer ${agg.sql} OVER DIFF($p)") {
      val spec = Specs.symCitiesMulti(Scorer(agg, p))
      val topK = TopK(4, ascending = true)
      assert(TestUtil.scoreBag(pruned(spec, topK).pairs) ==
        TestUtil.scoreBag(bruteForce(spec, topK)))
    }
  }

  for (agg <- Seq(AggKind.Min, AggKind.Max)) {
    test(s"${agg.sql} scorer falls back to exact scoring (no unsound pruning)") {
      val spec = Specs.symCities(Scorer(agg, 2))
      val topK = TopK(3, ascending = false)
      val res = pruned(spec, topK)
      assert(res.stats.pairsPruned == 0)
      assert(TestUtil.scoreBag(res.pairs) == TestUtil.scoreBag(bruteForce(spec, topK)))
    }
  }

  test("pruning actually prunes pairs on separable trends") {
    // Larger relation with well-separated city levels → tight bounds.
    val res = pruned(Specs.symCities(), TopK(1, ascending = false))
    assert(res.stats.pairsTotal == 8 * 7 / 2)
    assert(res.stats.pairsPruned > 0, s"stats=${res.stats}")
  }

  test("every config counts only the pairs that share a grouping value") {
    // A and B share weeks 1–2; C has only weeks 3–4, so one pair is scored.
    val t = Seq(
      TrendRow(0, Seq("A"), Map("1" -> 1.0, "2" -> 2.0)),
      TrendRow(0, Seq("B"), Map("1" -> 3.0, "2" -> 5.0)),
      TrendRow(0, Seq("C"), Map("3" -> 1.0, "4" -> 2.0)))
    val k = TopK(Int.MaxValue, ascending = true)
    val runs = Seq(
      "default" -> PrunedTopK.run(Specs.symCities(), t, t, k),
      "no early termination" -> PrunedTopK.run(Specs.symCities(), t, t, k,
        PrunedTopK.Config(useEarlyTermination = false)),
      "no pruning" -> PrunedTopK.run(Specs.symCities(), t, t, k, PrunedTopK.Config(usePruning = false)),
      "MAX scorer" -> PrunedTopK.run(Specs.symCities(Scorer(AggKind.Max, 2)), t, t, k))
    for ((name, res) <- runs) {
      assert(res.pairs.size == 1, name)
      assert(res.stats.pairsTotal == 1, name)
    }
  }

  test("early termination processes fewer tuples than exhaustive comparison") {
    val topK = TopK(1, ascending = false)
    val et = pruned(Specs.symCities(), topK)
    val full = pruned(Specs.symCities(), topK,
      PrunedTopK.Config(usePruning = false))
    assert(et.stats.tuplesCompared < full.stats.tuplesCompared,
      s"et=${et.stats.tuplesCompared} full=${full.stats.tuplesCompared}")
  }

  test("stats report summary sizes consistent with Sturges segmentation") {
    val res = pruned(Specs.symCities(), TopK(1, ascending = true))
    // 8 city trends + 8 city trends, 12-week domain → ⌊1+log2(12)⌋ = 4 segments.
    assert(res.stats.trendCount == 16)
    assert(res.stats.summaryDoubles == 16 * 4 * 4)
  }

  test("k larger than the number of pairs returns every pair") {
    val res = pruned(Specs.symCities(), TopK(1000, ascending = true))
    assert(res.pairs.size == 8 * 7 / 2)
  }

  test("results are deterministically ordered by score then pair identity") {
    val res = pruned(Specs.symCities(), TopK(5, ascending = true)).pairs
    val sorted = TestUtil.sortPairs(res, ascending = true)
    assert(res == sorted)
  }

  test("a finished pair at the k-th threshold is kept (flight Q2, 256 airports × 48 days)") {
    // Many short dense trends: the k-th best pair finishes its segments
    // during the search and must not be pruned by its own guarantee.
    val q = Workloads.flightQ2
    def ids(pairs: Seq[ScoredPair]) = pairs.map(p => (p.c1, p.c2, p.gm1, p.gm2)).toSet
    for (seed <- Seq(771671162L, 2L, 9L, 12L, 13L, 940280112L, 1124250886L)) {
      val (t1, t2) = TrendCollector.collect(FlightData.flights(spark, 256, 48, 1, seed), q.spec)
      val exact = PrunedTopK.run(q.spec, t1, t2, q.topK, PrunedTopK.Config(usePruning = false)).pairs
      val fast = PrunedTopK.run(q.spec, t1, t2, q.topK).pairs
      assert(ids(fast) == ids(exact), s"seed $seed: pruned=$fast\nexact=$exact")
    }
  }

  test("property: random sparse trends — pruned top-k equals brute force") {
    val rnd = new scala.util.Random(99)
    val spec = Specs.symCities()
    for (trial <- 1 to 20) {
      val t = (0 until 10).map { i =>
        val data = (1 to 30).filter(_ => rnd.nextDouble() < 0.8)
          .map(w => w.toString -> (rnd.nextDouble() * 40 + i)).toMap
        TrendRow(0, Seq(s"T$i"), data)
      }.filter(_.data.nonEmpty)
      val topK = TopK(3, ascending = trial % 2 == 0)
      val exact = PrunedTopK.run(spec, t, t, topK, PrunedTopK.Config(usePruning = false))
      val fast = PrunedTopK.run(spec, t, t, topK, PrunedTopK.Config())
      assert(TestUtil.scoreBag(fast.pairs) == TestUtil.scoreBag(exact.pairs), s"trial $trial")
    }
  }
}
