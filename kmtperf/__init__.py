"""A benchmark for this repository; see README.md in this directory."""
