"""The repo's absolute, layered end-to-end benchmark (see README.md here).

Run it with ``python benchmarks/e2e/__main__.py`` (or ``PYTHONPATH=src
python -m benchmarks.e2e``).  Importing this package starts nothing.
"""
