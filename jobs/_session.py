"""Shared spark-submit session builder for the experiment entry point.

``jobs/run.py`` is runnable both under ``spark-submit jobs/run.py <name>``
and as plain ``python jobs/run.py <name>`` (the driver-side experiments
ignore the session entirely; only the distributed one uses it). Importing
this module puts ``src/`` on the path of this interpreter and, through
``PYTHONPATH``, of the Spark Python workers started after it.
"""
import os
import sys

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
# Spark's Python workers import ``repro`` too. They are separate processes
# that inherit the environment, not this interpreter's sys.path.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


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
