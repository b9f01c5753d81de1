package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalentTolerant(sparkDf, sql, tolerantCols, relTol, tables)``
  * runs ``sql`` on DuckDB (via JDBC, in-process) over ``tables`` and asserts
  * its rows match ``sparkDf``. This catches wrong results from a rewritten
  * plan or a custom operator — "it ran" is not "it is correct". The columns
  * in ``tolerantCols`` are floating-point aggregates compared with a relative
  * tolerance, keyed by the remaining exact columns: the two engines sum
  * doubles in different orders.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def fmt(v: Any): String = v match {
    case null                         => "∅"
    case d: Double                    => f"$d%.6f"
    case f: Float                     => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal     => f"${bd.doubleValue}%.6f"
    case x                            => x.toString
  }

  /** Execute `sql` on an in-process DuckDB over the given Spark tables
    * (loaded as all-VARCHAR). Returns (columnLabels, rows).
    */
  def runDuck(sql: String, tables: Seq[(String, DataFrame)]): (Seq[String], Seq[Row]) = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      (dCols, dRows)
    } finally conn.close()
  }

  /** Columns in `tolerantCols` are compared as doubles with relative
    * tolerance `relTol` (two NaNs are equal, as are two equal infinities),
    * keyed by the exact remaining columns (which must uniquely identify each
    * row).
    */
  def assertEquivalentTolerant(sparkDf: DataFrame, sql: String, tolerantCols: Set[String],
                               relTol: Double, tables: (String, DataFrame)*): Unit = {
    val (dCols, dRows) = runDuck(sql, tables)
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )

    def split(rows: Seq[Row], cols: Seq[String]): Map[Seq[String], Seq[Double]] = {
      val lower = cols.map(_.toLowerCase)
      val keyIdx = lower.zipWithIndex.filterNot { case (c, _) => tolerantCols.map(_.toLowerCase)(c) }
        .sortBy(_._1).map(_._2)
      val numIdx = lower.zipWithIndex.filter { case (c, _) => tolerantCols.map(_.toLowerCase)(c) }
        .sortBy(_._1).map(_._2)
      val m = rows.map { r =>
        val key = keyIdx.map(i => fmt(r.get(i)))
        val nums = numIdx.map { i =>
          r.get(i) match {
            case null                     => Double.NaN
            case d: Double                => d
            case f: Float                 => f.toDouble
            case bd: java.math.BigDecimal => bd.doubleValue
            case s: String                => s.toDouble
            case other                    => other.toString.toDouble
          }
        }
        key -> nums
      }
      require(m.map(_._1).distinct.size == m.size,
        s"key columns do not uniquely identify rows (${m.size} rows, ${m.map(_._1).distinct.size} keys)")
      m.toMap
    }

    val got = split(sparkDf.collect().toSeq, sCols)
    val exp = split(dRows, dCols)
    require(got.keySet == exp.keySet,
      s"row-identity mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first spark-only: ${(got.keySet -- exp.keySet).take(3)}\n" +
      s"  first duck-only:  ${(exp.keySet -- got.keySet).take(3)}")
    got.foreach { case (key, nums) =>
      val expected = exp(key)
      nums.zip(expected).foreach { case (a, b) =>
        // An infinity against a finite value is a mismatch, though ∞ ≤ relTol · ∞.
        val ok = a == b || (a.isNaN && b.isNaN) || (!a.isInfinite && !b.isInfinite &&
          math.abs(a - b) <= math.max(1e-9, relTol * math.max(math.abs(a), math.abs(b))))
        require(ok, s"value mismatch at $key: spark=$a duckdb=$b (relTol=$relTol)")
      }
    }
  }
}
