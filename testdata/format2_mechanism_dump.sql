-- Mosaic dump; replay with mosaic.DB.Exec or cmd/mosaic.
CREATE TABLE Census (region TEXT, n INT);
COPY Census (region, n) FROM STDIN;
'north'	60
'south'	40
\.
CREATE GLOBAL POPULATION People (name TEXT, region TEXT, age INT);
CREATE TEMPORARY TABLE __meta_People_M1 (region TEXT, mcount FLOAT);
COPY __meta_People_M1 (region, mcount) FROM STDIN;
'north'	60
'south'	40
\.
CREATE METADATA People_M1 FOR People AS (SELECT region, mcount FROM __meta_People_M1);
DROP TABLE __meta_People_M1;
CREATE SAMPLE R (region TEXT, age INT) AS (SELECT region, age FROM People); -- mechanism "STRATIFIED ON region PERCENT 20" is not expressible in SQL; restore via SetMechanism
COPY R (region, age) FROM STDIN;
'north'	20
'south'	30
'south'	31
\.
CREATE SAMPLE S (name TEXT, region TEXT, age INT) AS (SELECT name, region, age FROM People); -- mechanism "BIASED ON (region = 'north') (p=0.5 else 0.1)" is not expressible in SQL; restore via SetMechanism
COPY S (name, region, age) FROM STDIN;
'Anna'	'north'	12
'Bob'	'south'	41
'Cleo'	'north'	18
'Ines'	'south'	37
\.
CREATE SAMPLE U (region TEXT, age INT) AS (SELECT region, age FROM People USING MECHANISM UNIFORM PERCENT 10);
COPY U (region, age) FROM STDIN;
'north'	50
'south'	60
\.
