"""Closed-loop tick benchmark for driveplan; entry point is perfbench/run.py."""
