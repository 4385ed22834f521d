"""Clinical note structurization: lexicon matching, assertion rules,
attribute backends, integration, and evaluation."""

__version__ = "0.1.0"
