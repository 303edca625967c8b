"""End-to-end benchmark of pdftext_ray; the command is raybench/run.py."""
