from .exporters import export_dof_txt, export_eps

__all__ = ["export_dof_txt", "export_eps"]
