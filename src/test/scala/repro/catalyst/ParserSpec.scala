package repro.catalyst

import org.apache.spark.sql.ReproBridge
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalacheck.{Gen, Prop, Test}
import repro.core._
import repro.{SparkSpec, TestData, TestUtil}

import scala.util.Random

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
    assert(table == Seq("sales"))
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
      "COMPARE TABLE t [a='unterminated <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2)",
      "COMPARE TABLE t [a <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2.5)", // p must be an integer
      "COMPARE TABLE t [a = 1.2.3 <-> a] [(g, AVG(m))] USING SUM OVER DIFF(2)")
    bad.foreach(s => assertThrows[IllegalArgumentException](parseParts(s)))
  }

  test("round trip: any spacing and keyword case of a statement parses back to it") {
    val names = Seq("a", "city", "Week_2", "_x", "top", "Using", "diff", "ünï")
    val name = Gen.oneOf(names)
    val value = Gen.oneOf(Gen.const(""), Gen.const("'"), Gen.numStr, Gen.const("3.25"),
      Gen.const("O'Hare, <-> ]"), Gen.alphaNumStr.map(_.take(5)))
    val side = for {
      n <- Gen.choose(1, 3)
      attrs <- Gen.pick(n, names)
      values <- Gen.listOfN(n, Gen.option(value))
    } yield attrs.toSeq.zip(values).map { case (a, v) => ConstraintTerm(a, v) }
    val gm = for (g <- name; agg <- Gen.oneOf(AggKind.all); m <- name) yield GroupingMeasure(g, agg, m)
    val statement = for {
      table <- Gen.choose(1, 2).flatMap(Gen.listOfN(_, name))
      c1 <- side; c2 <- side
      gms <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, gm))
      scorer <- Gen.zip(Gen.oneOf(AggKind.all), Gen.choose(1, 4)).map((Scorer.apply _).tupled)
      topK <- Gen.option(Gen.zip(Gen.choose(1, 50), Gen.oneOf(true, false)).map((TopK.apply _).tupled))
      renderSeed <- Gen.long
    } yield ((CompareSpec(TrendsetSpec(c1, gms), TrendsetSpec(c2, gms), scorer), topK, table), renderSeed)

    val prop = Prop.forAllNoShrink(statement) { case (parts, renderSeed) =>
      val sql = render(parts, new Random(renderSeed))
      Prop(parseParts(sql) == parts) :| sql
    }
    val result = Test.check(Test.Parameters.default.withInitialSeed(Seed(11L))
      .withMinSuccessfulTests(2000), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  /** `parts` as COMPARE text: keywords in random case; between two tokens a
    * space, tab or newline, or, next to a bracket, comma or operator, none.
    */
  private def render(parts: (CompareSpec, Option[TopK], Seq[String]), rnd: Random): String = {
    val (spec, topK, table) = parts
    def kw(w: String) = w.map(c => if (rnd.nextBoolean()) c.toLower else c)
    def cons(ts: TrendsetSpec) = ts.constraint.zipWithIndex.flatMap { case (ConstraintTerm(a, v), i) =>
      (if (i > 0) Seq(",") else Nil) ++ Seq(a) ++ v.toSeq.flatMap { s =>
        val bare = s.matches("""\d+(\.\d+)?""") && rnd.nextBoolean()
        Seq("=", if (bare) s else "'" + s.replace("'", "''") + "'")
      }
    }
    val gms = spec.t1.gms.zipWithIndex.flatMap { case (GroupingMeasure(g, agg, m), i) =>
      (if (i > 0) Seq(",") else Nil) ++ Seq("(", g, ",", kw(agg.sql), "(", m, ")", ")")
    }
    val top = topK.toSeq.flatMap { case TopK(k, asc) =>
      Seq(kw("TOP"), k.toString) ++ (if (!asc) Seq(kw("DESC")) else if (rnd.nextBoolean()) Seq(kw("ASC")) else Nil)
    }
    val tokens = Seq(kw("COMPARE"), kw("TABLE"), table.mkString("."), "[") ++ cons(spec.t1) ++
      Seq("<->") ++ cons(spec.t2) ++ Seq("]", "[") ++ gms ++ Seq("]", kw("USING"), kw(spec.scorer.agg.sql),
        kw("OVER"), kw("DIFF"), "(", spec.scorer.p.toString, ")") ++ top
    val spaces = Seq(" ", "\t", "\n", " \n\t ")
    def space(needed: Boolean) = if (needed || rnd.nextBoolean()) spaces(rnd.nextInt(spaces.size)) else ""
    val word = (c: Char) => c.isLetterOrDigit || c == '_' || c == '\''
    tokens.zip(tokens.tail).map { case (a, b) => space(word(a.last) && word(b.head)) + b }
      .mkString(space(false) + tokens.head, "", space(false))
  }

  test("a statement may span lines and name a global temporary view") {
    sales.createOrReplaceGlobalTempView("sales_g")
    val df = spark.sql("COMPARE\n\tTABLE global_temp.sales_g\n  [city <-> city]\n\t[(week, AVG(revenue))]\n" +
      "  USING SUM OVER DIFF(2)\n")
    TestUtil.assertSameResult(df, BasicExec.run(sales, Specs.symCities()))
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
