package cmpbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.catalyst.PkFkHints
import repro.core._
import repro.flight.FlightData
import repro.tpcds.WebSalesData
import repro.workload.{Workloads => RW}

/** One benchmark workload: how its input is generated and registered, and
  * the COMPARE query a client issues against it. Why each was chosen is in
  * BENCHMARK.json and README.md.
  *
  * @param load     generates the input from the seed, caches it and registers
  *                 its views and hints; returns the cached tables by name, so
  *                 the reference can read exactly the same rows
  * @param duckSql  statements DuckDB runs over those tables before the
  *                 reference query (the star workload's join view)
  */
final case class Workload(
    name: String,
    shape: String,
    table: String,
    spec: CompareSpec,
    topK: TopK,
    load: (SparkSession, Long) => Seq[(String, DataFrame)],
    duckSql: Seq[String] = Nil) {

  /** The COMPARE statement the benchmark times. */
  def sql: String = Workloads.render(table, spec, topK)
}

object Workloads {

  /** Input sizes: `Full` is what the timed runs use; `Tiny` is for the smoke test. */
  sealed trait Scale
  case object Full extends Scale
  case object Tiny extends Scale

  /** Render a spec as the COMPARE SQL text parsed by `CompareSqlParser`. */
  def render(table: String, spec: CompareSpec, k: TopK): String = {
    def cons(ts: TrendsetSpec) = ts.constraint.map {
      case ConstraintTerm(a, None)    => a
      case ConstraintTerm(a, Some(v)) => s"$a = '$v'"
    }.mkString(", ")
    val gms = spec.t1.gms.map(g => s"(${g.grouping}, ${g.agg.sql}(${g.measure}))").mkString(", ")
    s"COMPARE TABLE $table [${cons(spec.t1)} <-> ${cons(spec.t2)}] [$gms] " +
      s"USING ${spec.scorer.agg.sql} OVER DIFF(${spec.scorer.p}) TOP ${k.k} ${if (k.ascending) "ASC" else "DESC"}"
  }

  private def cached(df: DataFrame, view: String): DataFrame = {
    val c = df.cache()
    c.count()
    c.createOrReplaceTempView(view)
    c
  }

  private def flightLoad(airports: Int, days: Int, rowsPerCell: Int)(spark: SparkSession, seed: Long) =
    Seq("flights" -> cached(FlightData.flights(spark, airports, days, rowsPerCell, seed), "flights"))

  def flightQ4(scale: Scale): Workload = {
    val (a, d, r) = scale match { case Full => (40, 61, 4); case Tiny => (12, 30, 1) }
    val q = RW.flightQ4
    Workload("flight-q4",
      s"FlightData.flights($a airports, $d days, $r rows/cell) = ${a * d * r} rows, cached",
      "flights", q.spec, q.topK, flightLoad(a, d, r))
  }

  def flightQ2Wide(scale: Scale): Workload = {
    val (a, d) = scale match { case Full => (256, 48); case Tiny => (16, 12) }
    val q = RW.flightQ2
    Workload("flight-q2-wide",
      s"FlightData.flights($a airports, $d days, 1 row/cell) = ${a * d} rows, cached",
      "flights", q.spec, q.topK, flightLoad(a, d, 1))
  }

  def tpcdsQ3Star(scale: Scale): Workload = {
    val (rows, pages, items, days) = scale match {
      case Full => (750000L, 256, 200, 120)
      case Tiny => (20000L, 16, 20, 10)
    }
    val joinView = "CREATE OR REPLACE VIEW ws_wp AS SELECT * FROM web_sales JOIN web_page " +
      "ON ws_web_page_sk = wp_web_page_sk"
    val load = (spark: SparkSession, seed: Long) => {
      val ws = cached(WebSalesData.webSales(spark, rows, pages, items, days, seed = seed), "web_sales")
      val wp = cached(WebSalesData.webPage(spark, pages), "web_page")
      spark.sql(joinView.replace("CREATE OR REPLACE VIEW", "CREATE OR REPLACE TEMP VIEW"))
      PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
      Seq("web_sales" -> ws, "web_page" -> wp)
    }
    // Table 4 Q3 with its constraint named through the view, so that R1 has
    // a join to remove and renames the constraint back to ws_web_page_sk.
    val q = RW.tpcdsQ3
    def viaView(ts: TrendsetSpec) = ts.copy(constraint = ts.constraint.map(_.copy(attr = "wp_web_page_sk")))
    Workload("tpcds-q3-star",
      s"WebSalesData.webSales($rows rows, $pages pages, $items items, $days days) joined to webPage($pages) as view ws_wp, PK-FK hint registered",
      "ws_wp", q.spec.copy(t1 = viaView(q.spec.t1), t2 = viaView(q.spec.t2)), q.topK, load, Seq(joinView))
  }

  def byName(name: String, scale: Scale): Workload = name match {
    case "flight-q4"      => flightQ4(scale)
    case "flight-q2-wide" => flightQ2Wide(scale)
    case "tpcds-q3-star"  => tpcdsQ3Star(scale)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (flight-q4, flight-q2-wide, tpcds-q3-star)")
  }
}
