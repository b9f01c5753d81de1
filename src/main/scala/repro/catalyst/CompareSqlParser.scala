package repro.catalyst

import org.apache.spark.sql.catalyst.analysis.UnresolvedRelation
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.parser.ParserInterface
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.{FunctionIdentifier, TableIdentifier}
import org.apache.spark.sql.types.{DataType, StructType}
import repro.core._

import scala.util.parsing.combinator.RegexParsers

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
  private def compareOr(sqlText: String)(orElse: String => LogicalPlan): LogicalPlan =
    if (CompareStatementParser.isCompare(sqlText)) CompareStatementParser.parse(sqlText) else orElse(sqlText)

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

/** The COMPARE statement's grammar, one production per clause of §3.1.
  * Whitespace (spaces, tabs, newlines) may separate any two tokens; keywords
  * are case-insensitive; the table name may be qualified (`db.t`).
  */
object CompareStatementParser extends RegexParsers {

  private def kw(word: String): Parser[String] = s"(?i)$word\\b".r
  private val ident: Parser[String] = """[\p{L}_][\p{L}\p{Nd}_]*""".r
  private val posInt: Parser[Int] = """\d+""".r ^? (
    Function.unlift((s: String) => s.toIntOption.filter(_ >= 1)), s => s"expected a positive integer, got $s")
  /** A quoted string (`''` escapes a quote) or an unquoted number, kept as written. */
  private val literal: Parser[String] =
    """'([^']|'')*'""".r ^^ (s => s.substring(1, s.length - 1).replace("''", "'")) | """\d+(\.\d+)?""".r
  private val agg: Parser[AggKind] = ident ^? (Function.unlift(AggKind.find), s => s"unknown aggregate $s")

  private val table: Parser[Seq[String]] = rep1sep(ident, ".")
  private val term: Parser[ConstraintTerm] = ident ~ opt("=" ~> literal) ^^ { case a ~ v => ConstraintTerm(a, v) }
  private val constraint: Parser[Seq[ConstraintTerm]] = rep1sep(term, ",")
  private val gm: Parser[GroupingMeasure] = ("(" ~> ident <~ ",") ~ agg ~ ("(" ~> ident <~ ")" ~ ")") ^^ {
    case g ~ a ~ m => GroupingMeasure(g, a, m)
  }
  private val scorer: Parser[Scorer] = kw("USING") ~> agg ~ (kw("OVER") ~ kw("DIFF") ~ "(" ~> posInt <~ ")") ^^ {
    case a ~ p => Scorer(a, p)
  }
  private val topK: Parser[TopK] = kw("TOP") ~> posInt ~ opt(kw("ASC") ^^^ true | kw("DESC") ^^^ false) ^^ {
    case k ~ asc => TopK(k, asc.getOrElse(true))
  }
  private val statement: Parser[(CompareSpec, Option[TopK], Seq[String])] =
    kw("COMPARE") ~> kw("TABLE") ~> table ~ ("[" ~> constraint ~ ("<->" ~> constraint) <~ "]") ~
      ("[" ~> rep1sep(gm, ",") <~ "]") ~ scorer ~ opt(topK) ^^ {
        case t ~ (c1 ~ c2) ~ gms ~ s ~ k => (CompareSpec(TrendsetSpec(c1, gms), TrendsetSpec(c2, gms), s), k, t)
      }

  /** Whether `sql` starts with the COMPARE keyword, so is this grammar's to parse. */
  def isCompare(sql: String): Boolean = parse(kw("COMPARE"), sql).successful

  def parse(sql: String): CompareNode = {
    val (spec, topK, table) = parseParts(sql)
    CompareNode(spec, topK, UnresolvedRelation(table))
  }

  /** Parse into (spec, topK, table name parts) — also used by tests directly. */
  def parseParts(sql: String): (CompareSpec, Option[TopK], Seq[String]) = parseAll(statement, sql) match {
    case Success(r, _) => r
    case f: NoSuccess  => throw new IllegalArgumentException(s"COMPARE syntax error at ${f.next.pos}: ${f.msg}")
  }
}
