module reco/bench

go 1.22

require reco v0.0.0

replace reco => ../
