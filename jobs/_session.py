"""Shared spark-submit session builder for the experiment entry point.

``jobs/run.py`` is runnable both under ``spark-submit jobs/run.py <name>``
and as plain ``python jobs/run.py <name>`` (the driver-side experiments
ignore the session entirely; only the distributed one uses it).
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def get_spark(app_name: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
