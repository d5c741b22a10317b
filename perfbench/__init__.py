"""Closed-loop benchmark of the durfee command line; see README.md."""
