package repro

import org.apache.spark.sql.DataFrame
import repro.core.{CompareSpec, OracleRef, ScoredPair}

/** Shared assertions for comparing COMPARE results across strategies and
  * against the DuckDB oracle. Scores are floating-point aggregates summed in
  * engine-specific order, so all comparisons key on the exact identity
  * columns and compare scores with a relative tolerance.
  */
object TestUtil {

  val RelTol = 1e-6

  /** (identity-key → score) map of a COMPARE result. */
  def keyed(df: DataFrame): Map[Seq[String], Double] = {
    val cols = df.columns.toSeq
    val keyIdx = cols.zipWithIndex.filterNot(_._1 == "score").sortBy(_._1).map(_._2)
    val scoreIdx = cols.indexOf("score")
    require(scoreIdx >= 0, s"no score column in ${cols}")
    val rows = df.collect().toSeq.map { r =>
      keyIdx.map(i => Option(r.get(i)).map(_.toString).getOrElse("∅")) ->
        r.getDouble(scoreIdx)
    }
    require(rows.map(_._1).distinct.size == rows.size, "non-unique identity columns")
    rows.toMap
  }

  /** Two NaN scores are equal, as are two equal infinities; a NaN or an
    * infinity against a finite number is not (its relative distance would be
    * ∞ ≤ ∞).
    */
  def close(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN) ||
    (!a.isInfinite && !b.isInfinite &&
      math.abs(a - b) <= math.max(1e-9, RelTol * math.max(math.abs(a), math.abs(b))))

  def assertSameResult(a: DataFrame, b: DataFrame, hint: String = ""): Unit = {
    val ka = keyed(a); val kb = keyed(b)
    assert(ka.keySet == kb.keySet,
      s"$hint row-identity mismatch (${ka.size} vs ${kb.size} rows)\n" +
        s"  only-left:  ${(ka.keySet -- kb.keySet).take(3)}\n" +
        s"  only-right: ${(kb.keySet -- ka.keySet).take(3)}")
    ka.foreach { case (k, s) =>
      assert(close(s, kb(k)), s"$hint score mismatch at $k: $s vs ${kb(k)}")
    }
  }

  /** Check a COMPARE result DataFrame against the DuckDB reference query. */
  def checkOracle(result: DataFrame, spec: CompareSpec, table: String, data: DataFrame): Unit =
    Oracle.assertEquivalentTolerant(result, OracleRef.fullSql(table, spec),
      tolerantCols = Set("score"), relTol = RelTol, table -> data)

  /** Deterministic canonical ordering of scored pairs for top-k comparisons
    * (score direction first, then pair identity).
    */
  def sortPairs(pairs: Seq[ScoredPair], ascending: Boolean): Seq[ScoredPair] =
    pairs.sortBy(p => (if (ascending) p.score else -p.score,
      p.c1.mkString("|"), p.c2.mkString("|"), p.gm1, p.gm2))

  /** Multiset of rounded scores — tie-tolerant way to compare top-k outputs. */
  def scoreBag(pairs: Seq[ScoredPair]): Seq[Double] =
    pairs.map(p => math.rint(p.score * 1e4) / 1e4).sorted
}
