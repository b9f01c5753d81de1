package repro.catalyst

import org.apache.spark.sql.ReproBridge
import repro.core._
import repro.{SparkSpec, TestData, TestUtil}

/** The COMPARE SQL surface (§3.1): statement parsing and end-to-end
  * execution of parsed plans.
  */
class ParserSpec extends SparkSpec {
  import CompareStatementParser.parseParts

  private lazy val sales = TestData.sales(spark, rows = 1500).cache()

  test("parses example 1a's shape: fixed <-> fixed+varying") {
    val (spec, topK, table) = parseParts(
      "COMPARE TABLE sales [region='Asia' <-> region='Asia', product]" +
        " [(week, AVG(revenue))] USING SUM OVER DIFF(2)")
    assert(table == "sales")
    assert(spec.t1.constraint == Seq(ConstraintTerm("region", Some("Asia"))))
    assert(spec.t2.constraint ==
      Seq(ConstraintTerm("region", Some("Asia")), ConstraintTerm("product", None)))
    assert(spec.t1.gms == Seq(GroupingMeasure("week", AggKind.Avg, "revenue")))
    assert(spec.scorer == Scorer(AggKind.Sum, 2))
    assert(topK.isEmpty)
  }

  test("parses multiple (grouping, measure) pairs") {
    val (spec, _, _) = parseParts(
      "COMPARE TABLE sales [city <-> city]" +
        " [(week, AVG(revenue)), (month, AVG(profit)), (country, MAX(quantity))]" +
        " USING AVG OVER DIFF(1)")
    assert(spec.t1.gms.size == 3)
    assert(spec.t1.gms(2) == GroupingMeasure("country", AggKind.Max, "quantity"))
    assert(spec.scorer == Scorer(AggKind.Avg, 1))
  }

  test("parses TOP k with explicit direction") {
    val (_, topK, _) = parseParts(
      "COMPARE TABLE t [a <-> a] [(g, SUM(m))] USING SUM OVER DIFF(2) TOP 5 DESC")
    assert(topK.contains(TopK(5, ascending = false)))
  }

  test("TOP defaults to ascending (most similar first)") {
    val (_, topK, _) = parseParts(
      "COMPARE TABLE t [a <-> a] [(g, SUM(m))] USING SUM OVER DIFF(2) TOP 3")
    assert(topK.contains(TopK(3, ascending = true)))
  }

  test("keywords are case-insensitive") {
    val (spec, topK, _) = parseParts(
      "compare table t [a <-> a] [(g, avg(m))] using sum over diff(2) top 2 asc")
    assert(spec.scorer == Scorer(AggKind.Sum, 2))
    assert(topK.contains(TopK(2, ascending = true)))
  }

  test("string literals support escaped quotes") {
    val (spec, _, _) = parseParts(
      "COMPARE TABLE t [a='O''Hare' <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2)")
    assert(spec.t1.constraint.head.value.contains("O'Hare"))
  }

  test("numeric constraint values are accepted") {
    val (spec, _, _) = parseParts(
      "COMPARE TABLE t [a=5 <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2)")
    assert(spec.t1.constraint.head.value.contains("5"))
  }

  test("rejects malformed statements") {
    val bad = Seq(
      "COMPARE TABLE t [a <-> a] USING SUM OVER DIFF(2)",              // missing gms
      "COMPARE TABLE t [a] [(g, AVG(m))] USING SUM OVER DIFF(2)",      // missing <->
      "COMPARE TABLE t [a <-> a] [(g, AVG(m))] USING SUM OVER DIFF()", // missing p
      "COMPARE TABLE t [a <-> a] [(g, MEDIAN(m))] USING SUM OVER DIFF(2)", // bad agg
      "COMPARE TABLE t [a <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2) garbage",
      "COMPARE TABLE t [a='unterminated <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2)")
    bad.foreach(s => assertThrows[IllegalArgumentException](parseParts(s)))
  }

  test("tokenizer handles the <-> arrow and brackets") {
    import CompareStatementParser._
    val toks = tokenize("[a <-> b]")
    assert(toks == Vector(Sym("["), Ident("a"), Sym("<->"), Ident("b"), Sym("]")))
  }

  test("delegating parser passes ordinary SQL through") {
    val p = new CompareSqlParser(ReproBridge.sqlParser(spark))
    val plan = p.parsePlan("SELECT 1 AS x")
    assert(plan != null)
  }

  test("delegating parser intercepts COMPARE statements") {
    val p = new CompareSqlParser(ReproBridge.sqlParser(spark))
    val plan = p.parsePlan(
      "COMPARE TABLE sales [city <-> city] [(week, AVG(revenue))] USING SUM OVER DIFF(2)")
    assert(plan.isInstanceOf[CompareNode])
  }

  test("parsed plan executes end-to-end and matches the basic plan") {
    sales.createOrReplaceTempView("sales")
    val df = spark.sql(
      "COMPARE TABLE sales [city <-> city] [(week, AVG(revenue))] USING SUM OVER DIFF(2)")
    TestUtil.assertSameResult(df, BasicExec.run(sales, Specs.symCities()))
  }

  test("parsed TOP k plan returns k rows") {
    sales.createOrReplaceTempView("sales")
    val df = spark.sql(
      "COMPARE TABLE sales [city <-> city] [(week, AVG(revenue))] USING SUM OVER DIFF(2) TOP 3 ASC")
    assert(df.count() == 3)
  }

  test("CompareExtensions builder injects without error") {
    val ext = new org.apache.spark.sql.SparkSessionExtensions
    new CompareExtensions().apply(ext) // builder wiring itself must not throw
  }
}
