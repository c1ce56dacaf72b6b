"""smotekit: synthetic minority over-sampling and ROC evaluation for
imbalanced binary datasets.

Resampling: SMOTE (continuous), SMOTE-NC (mixed), SMOTE-N (nominal, value
difference metric), replication over-sampling, and majority under-sampling.
Evaluation: stratified cross-validation, fold-averaged ROC points, trapezoid
AUC, and the ROC convex hull across resampling families.
"""

__version__ = "0.1.0"
