package repro.catalyst

import org.apache.spark.sql.catalyst.analysis.UnresolvedRelation
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.parser.ParserInterface
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.{FunctionIdentifier, TableIdentifier}
import org.apache.spark.sql.types.{DataType, StructType}
import repro.core._

/** SQL surface for COMPARE (§3.1), as a delegating `ParserInterface`.
  *
  * Handles the canonical statement
  * {{{
  * COMPARE TABLE <table>
  *   [ <c1> <-> <c2> ] [ (g, AGG(m)), ... ]
  *   USING AGG OVER DIFF(p) [ TOP k ASC|DESC ]
  * }}}
  * where a constraint is a comma list of `attr` (varying) or `attr = 'v'`
  * (fixed) terms — the trendset shorthands of §2.2.2. Everything else
  * delegates to Spark's parser. The paper's SELECT-embedded grammar is sugar
  * over the same logical node (see DESIGN.md substitutions).
  */
class CompareSqlParser(delegate: ParserInterface) extends ParserInterface {

  /** A COMPARE statement, or else `sqlText` parsed by `orElse`. */
  private def compareOr(sqlText: String)(orElse: String => LogicalPlan): LogicalPlan = {
    val t = sqlText.trim
    if (t.toUpperCase.startsWith("COMPARE ")) CompareStatementParser.parse(t) else orElse(sqlText)
  }

  override def parsePlan(sqlText: String): LogicalPlan = compareOr(sqlText)(delegate.parsePlan)
  override def parseQuery(sqlText: String): LogicalPlan = compareOr(sqlText)(delegate.parseQuery)

  override def parseExpression(sqlText: String): Expression = delegate.parseExpression(sqlText)
  override def parseTableIdentifier(sqlText: String): TableIdentifier = delegate.parseTableIdentifier(sqlText)
  override def parseFunctionIdentifier(sqlText: String): FunctionIdentifier = delegate.parseFunctionIdentifier(sqlText)
  override def parseMultipartIdentifier(sqlText: String): Seq[String] = delegate.parseMultipartIdentifier(sqlText)
  override def parseTableSchema(sqlText: String): StructType = delegate.parseTableSchema(sqlText)
  override def parseRoutineParam(sqlText: String): StructType = delegate.parseRoutineParam(sqlText)
  override def parseDataType(sqlText: String): DataType = delegate.parseDataType(sqlText)
}

/** Hand-rolled tokenizer + recursive-descent parser for the COMPARE
  * statement (kept independent of ANTLR so the grammar is auditable next to
  * the paper's syntax).
  */
object CompareStatementParser {

  sealed trait Tok
  case class Ident(s: String) extends Tok
  case class Num(s: String) extends Tok
  case class Str(s: String) extends Tok
  case class Sym(s: String) extends Tok

  def tokenize(in: String): Vector[Tok] = {
    val out = Vector.newBuilder[Tok]
    var i = 0
    while (i < in.length) {
      val c = in(i)
      if (c.isWhitespace) i += 1
      else if (in.startsWith("<->", i)) { out += Sym("<->"); i += 3 }
      else if ("[](),=".contains(c)) { out += Sym(c.toString); i += 1 }
      else if (c == '\'') {
        val sb = new StringBuilder
        i += 1
        var done = false
        while (!done) {
          if (i >= in.length) throw parseError("unterminated string literal")
          if (in(i) == '\'' && i + 1 < in.length && in(i + 1) == '\'') { sb += '\''; i += 2 }
          else if (in(i) == '\'') { i += 1; done = true }
          else { sb += in(i); i += 1 }
        }
        out += Str(sb.toString)
      } else if (c.isDigit) {
        val start = i
        while (i < in.length && (in(i).isDigit || in(i) == '.')) i += 1
        out += Num(in.substring(start, i))
      } else if (c.isLetter || c == '_') {
        val start = i
        while (i < in.length && (in(i).isLetterOrDigit || in(i) == '_' || in(i) == '.')) i += 1
        out += Ident(in.substring(start, i))
      } else throw parseError(s"unexpected character '$c' at $i")
    }
    out.result()
  }

  private def parseError(msg: String) = new IllegalArgumentException(s"COMPARE syntax error: $msg")

  private final class P(toks: Vector[Tok]) {
    private var pos = 0
    def peek: Option[Tok] = toks.lift(pos)
    def next(): Tok = { val t = toks.lift(pos).getOrElse(throw parseError("unexpected end")); pos += 1; t }
    def expectSym(s: String): Unit = next() match {
      case Sym(`s`) => ()
      case other    => throw parseError(s"expected '$s', got $other")
    }
    def expectKw(kw: String): Unit = next() match {
      case Ident(s) if s.equalsIgnoreCase(kw) => ()
      case other => throw parseError(s"expected keyword $kw, got $other")
    }
    def ident(): String = next() match {
      case Ident(s) => s
      case other    => throw parseError(s"expected identifier, got $other")
    }
    def atKw(kw: String): Boolean = peek.exists { case Ident(s) => s.equalsIgnoreCase(kw); case _ => false }
    def atSym(s: String): Boolean = peek.contains(Sym(s))
    def done: Boolean = pos >= toks.size
  }

  def parse(sql: String): CompareNode = {
    val (spec, topK, table) = parseParts(sql)
    CompareNode(spec, topK, UnresolvedRelation(Seq(table)))
  }

  /** Parse into (spec, topK, tableName) — also used by tests directly. */
  def parseParts(sql: String): (CompareSpec, Option[TopK], String) = {
    val p = new P(tokenize(sql))
    p.expectKw("COMPARE"); p.expectKw("TABLE")
    val table = p.ident()

    p.expectSym("[")
    val c1 = parseConstraint(p)
    p.expectSym("<->")
    val c2 = parseConstraint(p)
    p.expectSym("]")

    p.expectSym("[")
    val gms = Vector.newBuilder[GroupingMeasure]
    var more = true
    while (more) {
      p.expectSym("(")
      val g = p.ident()
      p.expectSym(",")
      val agg = AggKind.parse(p.ident())
      p.expectSym("(")
      val m = p.ident()
      p.expectSym(")")
      p.expectSym(")")
      gms += GroupingMeasure(g, agg, m)
      if (p.atSym(",")) p.next() else more = false
    }
    p.expectSym("]")

    p.expectKw("USING")
    val scorerAgg = AggKind.parse(p.ident())
    p.expectKw("OVER"); p.expectKw("DIFF")
    p.expectSym("(")
    val pExp = p.next() match {
      case Num(n) => n.toDouble.toInt
      case other  => throw parseError(s"expected DIFF exponent, got $other")
    }
    p.expectSym(")")

    val topK =
      if (p.atKw("TOP")) {
        p.next()
        val k = p.next() match {
          case Num(n) => n.toInt
          case other  => throw parseError(s"expected k after TOP, got $other")
        }
        val asc =
          if (p.atKw("ASC")) { p.next(); true }
          else if (p.atKw("DESC")) { p.next(); false }
          else true
        Some(TopK(k, asc))
      } else None
    if (!p.done) throw parseError("trailing tokens")

    val gmList = gms.result()
    val spec = CompareSpec(TrendsetSpec(c1, gmList), TrendsetSpec(c2, gmList), Scorer(scorerAgg, pExp))
    (spec, topK, table)
  }

  private def parseConstraint(p: P): Seq[ConstraintTerm] = {
    val terms = Vector.newBuilder[ConstraintTerm]
    var more = true
    while (more) {
      val attr = p.ident()
      if (p.atSym("=")) {
        p.next()
        val v = p.next() match {
          case Str(s) => s
          case Num(n) => n
          case other  => throw parseError(s"expected literal after '=', got $other")
        }
        terms += ConstraintTerm(attr, Some(v))
      } else terms += ConstraintTerm(attr, None)
      if (p.atSym(",")) p.next() else more = false
    }
    terms.result()
  }
}
