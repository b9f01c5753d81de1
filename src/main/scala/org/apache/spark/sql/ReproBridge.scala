package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** Narrow bridge to `private[sql]` members of the classic Spark session —
  * the reproduction needs to wrap a hand-built logical plan into a DataFrame
  * ([[classic.Dataset.ofRows]]), to read a DataFrame's plans, and to plan and
  * collect the trend aggregate.
  */
object ReproBridge {
  def ofRows(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)

  def analyzedPlan(df: DataFrame): LogicalPlan =
    df.asInstanceOf[classic.Dataset[Row]].queryExecution.analyzed

  def optimizedPlan(df: DataFrame): LogicalPlan =
    df.asInstanceOf[classic.Dataset[Row]].queryExecution.optimizedPlan

  def executedPlan(df: DataFrame): org.apache.spark.sql.execution.SparkPlan =
    df.asInstanceOf[classic.Dataset[Row]].queryExecution.executedPlan

  def sqlParser(spark: SparkSession): org.apache.spark.sql.catalyst.parser.ParserInterface =
    spark.asInstanceOf[classic.SparkSession].sessionState.sqlParser

  def planner(spark: SparkSession): org.apache.spark.sql.execution.SparkPlanner =
    spark.asInstanceOf[classic.SparkSession].sessionState.planner

  /** A DataFrame's rows as `InternalRow`s, collected in one SQL execution. */
  def executeCollect(df: DataFrame): Array[org.apache.spark.sql.catalyst.InternalRow] = {
    val qe = df.asInstanceOf[classic.Dataset[Row]].queryExecution
    org.apache.spark.sql.execution.SQLExecution.withNewExecutionId(qe, Some("collect"))(
      qe.executedPlan.executeCollect())
  }
}
