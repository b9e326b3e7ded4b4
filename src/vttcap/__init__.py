"""Desk-scale video-to-text captioning pipeline."""

__version__ = "0.1.0"
