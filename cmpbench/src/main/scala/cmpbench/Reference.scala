package cmpbench

import java.io.File
import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.{CompareOutput, OracleRef}

/** One result row: the pair's identity (every output column but the score)
  * and its score.
  */
final case class Answer(id: Seq[String], score: Double)

/** The correctness gate. The reference answer is computed once per run,
  * outside every timed phase, by DuckDB running the plain-SQL formulation
  * ([[OracleRef.fullSql]]) over the same generated rows, handed over as
  * Parquet. It keeps `Margin` rows past the k-th, so that ties at the k-th
  * score can be recognised.
  */
object Reference {

  val RelTol = 1e-6
  private val Margin = 16

  def compute(w: Workload, tables: Seq[(String, DataFrame)], dir: File): Seq[Answer] = {
    tables.foreach { case (name, df) =>
      df.write.mode("overwrite").parquet(new File(dir, name).getAbsolutePath)
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      tables.foreach { case (name, _) =>
        val glob = new File(new File(dir, name), "*.parquet").getAbsolutePath
        st.execute(s"CREATE VIEW $name AS SELECT * FROM read_parquet('$glob')")
      }
      w.duckSql.foreach(st.execute)
      val cols = CompareOutput.columns(w.spec)
      val order = if (w.topK.ascending) "ASC" else "DESC"
      val rs = st.executeQuery(
        s"SELECT * FROM (${OracleRef.fullSql(w.table, w.spec)}) ORDER BY score $order " +
          s"LIMIT ${w.topK.k + Margin}")
      val out = Vector.newBuilder[Answer]
      while (rs.next())
        out += Answer(cols.init.map(c => rs.getString(c)), rs.getDouble("score"))
      out.result()
    } finally conn.close()
  }

  def fromRows(rows: Seq[Row]): Seq[Answer] =
    rows.map(r => Answer((0 until r.length - 1).map(i => Option(r.get(i)).map(_.toString).orNull),
      r.getDouble(r.length - 1)))

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= math.max(1e-9, RelTol * math.max(math.abs(a), math.abs(b)))

  /** Checks one answer against the reference; returns the first discrepancy.
    *
    *   - the k scores match the reference's k best within `RelTol`;
    *   - every returned pair is a reference pair with that score;
    *   - every reference pair strictly better than the k-th score is returned.
    *     Which of several pairs tied at the k-th score is returned is not
    *     defined yet, so those are not checked.
    */
  def check(got: Seq[Answer], ref: Seq[Answer], k: Int, ascending: Boolean): Option[String] = {
    val want = ref.take(k)
    val sorted = got.sortBy(a => if (ascending) a.score else -a.score)
    def show(as: Seq[Answer]) = as.map(x => s"${x.id.mkString("/")}=${x.score}").mkString("[", ", ", "]")
    if (got.size != want.size)
      return Some(s"${got.size} rows ${show(sorted)}, reference has ${want.size} ${show(want)}")
    sorted.zip(want).zipWithIndex.collectFirst {
      case ((g, r), i) if !close(g.score, r.score) => s"score #${i + 1} is ${g.score}, reference ${r.score}"
    }.orElse {
      val refScore = ref.map(a => a.id -> a.score).toMap
      got.collectFirst {
        case g if !refScore.get(g.id).exists(close(_, g.score)) => s"pair ${g.id} (${g.score}) is not in the reference"
      }
    }.orElse {
      val kth = want.lastOption.fold(0.0)(_.score)
      val ids = got.map(_.id).toSet
      want.collectFirst {
        case r if !close(r.score, kth) && !ids.contains(r.id) => s"reference pair ${r.id} (${r.score}) is missing"
      }
    }
  }

  /** A deliberately wrong reference (smoke test only): the best score is
    * moved by 10%, which every correct answer must then fail.
    */
  def corrupt(ref: Seq[Answer]): Seq[Answer] =
    ref.headOption.map(h => h.copy(score = h.score * 1.1 + 1.0) +: ref.tail).getOrElse(ref)
}
