"""Cross-fitted double machine learning for macro treatment effects on
fund-return panels.

The package namespace holds only `__version__`; the API lives in the
submodules (`macrodml.cli`, `macrodml.dml`, `macrodml.learners`, ...), so
importing the package loads none of them.
"""

__version__ = "0.1.0"
