module aecdsm

go 1.24
