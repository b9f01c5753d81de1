package repro.workload

import repro.core._
import repro.flight.FlightData
import repro.tpcds.WebSalesData

/** The four comparative query types of Table 4, over both datasets.
  *
  * Paper ↔ repro mapping: Flight's `airport='SFO'` becomes `airport='A000'`
  * (synthetic airports are A000..Axxx); TPC-DS's `webpage = 1` is
  * `ws_web_page_sk='1'`. "Number of output pair of trends" defaults to 5
  * (paper §8: "the default number of output pair of trends set to 5"), most
  * similar first (the paper's example queries order ascending).
  */
object Workloads {

  final case class Query(id: String, spec: CompareSpec, topK: TopK) {
    override def toString: String = id
  }

  val DefaultK: TopK = TopK(5, ascending = true)
  private val scorer = Scorer(AggKind.Sum, 2) // the paper's SUM() OVER DIFF(2)

  // ----------------------------------------------------------------- Flight

  private def fTs(constraint: Seq[ConstraintTerm], gms: Seq[GroupingMeasure]) =
    TrendsetSpec(constraint, gms)

  private val dayArr = Seq(GroupingMeasure("day", AggKind.Avg, "arrdelay"))

  /** Q1 — one to many, fixed attributes: one airport vs all airports. */
  def flightQ1: Query = Query("Flight-Q1", CompareSpec(
    fTs(Seq(ConstraintTerm("airport", Some("A000"))), dayArr),
    fTs(Seq(ConstraintTerm("airport", None)), dayArr),
    scorer), DefaultK)

  /** Q2 — many to many, fixed attributes: all airports vs all airports. */
  def flightQ2: Query = Query("Flight-Q2", CompareSpec(
    fTs(Seq(ConstraintTerm("airport", None)), dayArr),
    fTs(Seq(ConstraintTerm("airport", None)), dayArr),
    scorer), DefaultK)

  /** Q3 — one to one, varying attributes: one airport over 10 (g, m). */
  def flightQ3: Query = Query("Flight-Q3", CompareSpec(
    fTs(Seq(ConstraintTerm("airport", Some("A000"))), FlightData.gms10),
    fTs(Seq(ConstraintTerm("airport", Some("A000"))), FlightData.gms10),
    scorer), DefaultK)

  /** Q4 — many to many, varying attributes: all airports over 10 (g, m). */
  def flightQ4: Query = Query("Flight-Q4", CompareSpec(
    fTs(Seq(ConstraintTerm("airport", None)), FlightData.gms10),
    fTs(Seq(ConstraintTerm("airport", None)), FlightData.gms10),
    scorer), DefaultK)

  def flightQueries: Seq[Query] = Seq(flightQ1, flightQ2, flightQ3, flightQ4)

  // ----------------------------------------------------------------- TPC-DS

  private val itemProfit = Seq(GroupingMeasure("ws_item_sk", AggKind.Avg, "ws_net_profit"))

  def tpcdsQ1: Query = Query("TPCDS-Q1", CompareSpec(
    fTs(Seq(ConstraintTerm("ws_web_page_sk", Some("1"))), itemProfit),
    fTs(Seq(ConstraintTerm("ws_web_page_sk", None)), itemProfit),
    scorer), DefaultK)

  def tpcdsQ2: Query = Query("TPCDS-Q2", CompareSpec(
    fTs(Seq(ConstraintTerm("ws_web_page_sk", None)), itemProfit),
    fTs(Seq(ConstraintTerm("ws_web_page_sk", None)), itemProfit),
    scorer), DefaultK)

  def tpcdsQ3: Query = Query("TPCDS-Q3", CompareSpec(
    fTs(Seq(ConstraintTerm("ws_web_page_sk", Some("1"))), WebSalesData.gms5),
    fTs(Seq(ConstraintTerm("ws_web_page_sk", Some("1"))), WebSalesData.gms5),
    scorer), DefaultK)

  def tpcdsQ4: Query = Query("TPCDS-Q4", CompareSpec(
    fTs(Seq(ConstraintTerm("ws_web_page_sk", None)), WebSalesData.gms5),
    fTs(Seq(ConstraintTerm("ws_web_page_sk", None)), WebSalesData.gms5),
    scorer), DefaultK)

  def tpcdsQueries: Seq[Query] = Seq(tpcdsQ1, tpcdsQ2, tpcdsQ3, tpcdsQ4)
}
