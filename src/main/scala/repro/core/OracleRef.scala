package repro.core

/** Generates the plain-SQL equivalent of a COMPARE expression (the verbose
  * Figure-3 formulation of §1) in DuckDB dialect.
  *
  * Used by tests as the correctness reference via [[repro.Oracle]]: the
  * oracle's tables are all-VARCHAR, so measures are cast to DOUBLE and
  * groupings compared as strings — matching the string canonicalization of
  * the basic plan's trend relations ([[BasicExec]]). Scores are compared with
  * a relative tolerance on the test side (engines sum doubles in different
  * orders).
  */
object OracleRef {

  private def q(id: String): String = "\"" + id + "\""
  private def lit(v: String): String = "'" + v.replace("'", "''") + "'"

  private def aggSql(a: AggKind, arg: String): String = s"${a.sql}($arg)"

  /** CTE body for one side's trend relation for one (g, m). */
  private def trendRelSql(table: String, ts: TrendsetSpec, gm: GroupingMeasure, side: Int): String = {
    val free    = ts.freeAttrs
    val keyCols = free.map(a => s"${q(a)} AS ${q(s"${a}_$side")}")
    val gCol    = s"${q(gm.grouping)} AS g"
    val vCol    = s"${aggSql(gm.agg, s"CAST(${q(gm.measure)} AS DOUBLE)")} AS v"
    val where =
      if (ts.fixedTerms.isEmpty) ""
      else " WHERE " + ts.fixedTerms.map { case (a, v) => s"${q(a)} = ${lit(v)}" }.mkString(" AND ")
    val groupBy = (free.map(q) :+ q(gm.grouping)).mkString(", ")
    s"SELECT ${(keyCols :+ gCol :+ vCol).mkString(", ")} FROM $table$where GROUP BY $groupBy"
  }

  /** The full comparative query: one SELECT per comparable (g, m) pair,
    * UNION ALL'd — column-compatible with [[CompareOutput.columns]].
    */
  def fullSql(table: String, spec: CompareSpec): String = {
    val selects = spec.comparableGmPairs.map { case (i, j) =>
      val gm1 = spec.t1.gms(i); val gm2 = spec.t2.gms(j)
      val a = s"(${trendRelSql(table, spec.t1, gm1, 1)}) a"
      val b = s"(${trendRelSql(table, spec.t2, gm2, 2)}) b"

      // Side `side`'s value of constraint term `t`: its column, or its constant.
      def cVal(t: ConstraintTerm, side: Int): String =
        t.value.fold(s"${if (side == 1) "a" else "b"}.${q(s"${t.attr}_$side")}")(lit)
      val v1 = spec.t1.constraint.map(cVal(_, 1))
      val v2 = spec.t2.constraint.map(cVal(_, 2))
      val c1 = v1.zip(spec.t1.attrs).map { case (v, attr) => s"$v AS ${q(s"${attr}_1")}" }
      val c2 = v2.zip(spec.t2.attrs).map { case (v, attr) => s"$v AS ${q(s"${attr}_2")}" }
      val labels = Seq(
        s"${lit(gm1.grouping)} AS ${q("grouping")}",
        s"${lit(gm1.measureLabel)} AS ${q("measure_1")}",
        s"${lit(gm2.measureLabel)} AS ${q("measure_2")}")
      val score =
        s"${aggSql(spec.scorer.agg, s"POWER(ABS(a.v - b.v), ${spec.scorer.p})")} AS ${q("score")}"

      // The pair rule of [[PairRule]]. A DuckDB row comparison orders NULLs
      // instead of returning unknown, hence the IS NOT NULL guards.
      val pairCond = spec.pairMode match {
        case PairMode.SymmetricConstraint =>
          (v1 ++ v2).map(v => s" AND $v IS NOT NULL").mkString +
            s" AND (${v1.mkString(", ")}) < (${v2.mkString(", ")})"
        case PairMode.CrossConstraint if spec.excludeIdenticalConstraint =>
          s" AND NOT (${v1.lazyZip(v2).map((l, r) => s"$l = $r").mkString(" AND ")})"
        case _ => ""
      }

      val freeGroupBy =
        (spec.t1.freeAttrs.map(x => s"a.${q(s"${x}_1")}") ++
          spec.t2.freeAttrs.map(x => s"b.${q(s"${x}_2")}"))
      val tail =
        if (freeGroupBy.nonEmpty) s" GROUP BY ${freeGroupBy.mkString(", ")}"
        else " HAVING COUNT(*) > 0" // align with Spark's zero-row group-by on empty input

      s"SELECT ${(c1 ++ c2 ++ labels :+ score).mkString(", ")} FROM $a JOIN $b ON a.g = b.g$pairCond$tail"
    }
    selects.mkString("\nUNION ALL\n")
  }
}
