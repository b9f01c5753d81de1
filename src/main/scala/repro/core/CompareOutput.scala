package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Output schema of COMPARE (§3.1, Tables 1–2) and helpers to materialize it.
  *
  * Core schema: one string column per constraint attribute per side
  * (`<attr>_1`, `<attr>_2`), then `grouping`, `measure_1`, `measure_2`
  * (labels of the compared (g, m) pair) and `score: double`.
  *
  * The paper presents the (g, m) identification as Boolean flag columns
  * (W / C / M / V / O in Tables 1–2); [[flagsView]] pivots the label columns
  * into that shape.
  */
object CompareOutput {

  def c1Cols(spec: CompareSpec): Seq[String] = spec.t1.attrs.map(a => s"${a}_1")
  def c2Cols(spec: CompareSpec): Seq[String] = spec.t2.attrs.map(a => s"${a}_2")

  /** Column names of the core output, in order. */
  def columns(spec: CompareSpec): Seq[String] =
    c1Cols(spec) ++ c2Cols(spec) ++ Seq("grouping", "measure_1", "measure_2", "score")

  /** Spark schema of the core output. */
  def schema(spec: CompareSpec): StructType =
    StructType(
      columns(spec).dropRight(1).map(StructField(_, StringType, nullable = true)) :+
        StructField("score", DoubleType, nullable = false))

  /** A scored pair's values in the core output's column order. */
  def values(spec: CompareSpec, p: ScoredPair): Seq[Any] = {
    val gm1 = spec.t1.gms(p.gm1); val gm2 = spec.t2.gms(p.gm2)
    p.c1 ++ p.c2 ++ Seq(gm1.grouping, gm1.measureLabel, gm2.measureLabel, p.score)
  }

  /** Materialize scored pairs as a DataFrame in the core output schema. */
  def toDf(spark: SparkSession, spec: CompareSpec, pairs: Seq[ScoredPair]): DataFrame = {
    val rows = pairs.map(p => Row.fromSeq(values(spec, p)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema(spec))
  }

  /** The paper's Boolean-flag presentation (Tables 1–2): one Boolean column
    * per distinct grouping attribute and per distinct measure label, true when
    * that attribute participated in the compared pair of trends.
    */
  def flagsView(spec: CompareSpec, core: DataFrame): DataFrame = {
    val groupings = spec.groupingColumns
    val measures  = (spec.t1.gms ++ spec.t2.gms).map(_.measureLabel).distinct
    val idCols    = (c1Cols(spec) ++ c2Cols(spec)).map(col)
    val gFlags    = groupings.map(g => (col("grouping") === lit(g)).as(g))
    val mFlags    = measures.map(m =>
      (col("measure_1") === lit(m) || col("measure_2") === lit(m)).as(m))
    core.select(idCols ++ gFlags ++ mFlags :+ col("score"): _*)
  }
}
